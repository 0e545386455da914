package gmm

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"voiceguard/internal/features"
	"voiceguard/internal/speech"
)

// mfccFixture is a production-shaped verification scenario: a
// 32-component UBM over real MFCC frames from the repo's own speech
// synthesis, an enrolled speaker, and per-utterance genuine/impostor
// test segments. Building it runs EM once, so tests share one instance.
type mfccFixture struct {
	ubm      *GMM
	verifier *Verifier
	pool     [][]float64   // all frames, UBM training set
	genuine  [][][]float64 // test utterances from the enrolled speaker
	impostor [][][]float64 // test utterances from everyone else
}

var (
	mfccOnce sync.Once
	mfccFix  *mfccFixture
	mfccErr  error
)

func loadMFCCFixture(tb testing.TB) *mfccFixture {
	tb.Helper()
	mfccOnce.Do(func() {
		mfccFix, mfccErr = buildMFCCFixture()
	})
	if mfccErr != nil {
		tb.Fatal(mfccErr)
	}
	return mfccFix
}

func buildMFCCFixture() (*mfccFixture, error) {
	utts, err := speech.NewRoster(4, 77).Generate(speech.CorpusConfig{
		Sessions: 2, UtterancesPerSession: 2, Digits: 5,
	})
	if err != nil {
		return nil, err
	}
	f := &mfccFixture{}
	enrollName := utts[0].Speaker
	var enroll [][]float64
	for _, u := range utts {
		fr, err := features.Extract(u.Audio, features.DefaultMFCCConfig())
		if err != nil {
			return nil, err
		}
		f.pool = append(f.pool, fr...)
		switch {
		case u.Speaker == enrollName && len(enroll) == 0:
			enroll = fr
		case u.Speaker == enrollName:
			f.genuine = append(f.genuine, fr)
		default:
			f.impostor = append(f.impostor, fr)
		}
	}
	f.ubm, err = TrainUBM(f.pool, TrainConfig{Components: 32, Seed: 1})
	if err != nil {
		return nil, err
	}
	f.verifier, err = NewVerifier(f.ubm, enroll, 16)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// testUtterances returns every test utterance with its exact-path LLR.
func (f *mfccFixture) testUtterances() [][][]float64 {
	out := append([][][]float64{}, f.genuine...)
	return append(out, f.impostor...)
}

func compileFixture(tb testing.TB, f *mfccFixture) (ubm, spk *ScoringModel) {
	tb.Helper()
	ubm, err := Compile(f.ubm)
	if err != nil {
		tb.Fatal(err)
	}
	spk, err = Compile(f.verifier.Speaker)
	if err != nil {
		tb.Fatal(err)
	}
	return ubm, spk
}

func TestQuadSweepMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ k, stride int }{
		{32, 16}, // unrolled fast path
		{5, 4},   // single-block rows
		{7, 8},   // one double block
		{3, 24},  // loop plus trailing block
	} {
		means := make([]float32, tc.k*tc.stride)
		invVars := make([]float32, tc.k*tc.stride)
		xf := make([]float32, tc.stride)
		for i := range means {
			means[i] = float32(rng.NormFloat64())
			invVars[i] = float32(rng.Float64() + 0.1)
		}
		for i := range xf {
			xf[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, tc.k)
		want := make([]float32, tc.k)
		quadSweep(means, invVars, xf, got, tc.k, tc.stride)
		quadSweepGeneric(means, invVars, xf, want, tc.k, tc.stride)
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("k=%d stride=%d comp %d: kernel %v, generic %v",
					tc.k, tc.stride, c, got[c], want[c])
			}
		}
	}
}

func TestCompileDigestStable(t *testing.T) {
	f := loadMFCCFixture(t)
	a, err := Compile(f.ubm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(f.ubm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == "" || a.Digest() != b.Digest() {
		t.Errorf("digest not stable: %q vs %q", a.Digest(), b.Digest())
	}
	want, err := ModelDigest(f.ubm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != want {
		t.Errorf("compiled digest %q, model digest %q", a.Digest(), want)
	}
	if a.NumComponents() != f.ubm.NumComponents() || a.Dim() != f.ubm.Dim() {
		t.Errorf("shape %d/%d, want %d/%d", a.NumComponents(), a.Dim(),
			f.ubm.NumComponents(), f.ubm.Dim())
	}
	if a.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(&GMM{}); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("empty model: %v", err)
	}
	bad := &GMM{
		Weights: []float64{0.5, 0.5},
		Means:   [][]float64{{0, 0}, {1}},
		Vars:    [][]float64{{1, 1}, {1, 1}},
	}
	if _, err := Compile(bad); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("ragged means: %v", err)
	}
}

// TestQuantizedFullMatchesExact pins the float32 layout itself: with the
// shortlist disabled (C = NumComponents) the only difference from the
// exact path is quantization, which must stay far inside the ε budget.
func TestQuantizedFullMatchesExact(t *testing.T) {
	f := loadMFCCFixture(t)
	sm, _ := compileFixture(t, f)
	for i, utt := range f.testUtterances() {
		got, err := sm.MeanLogLikelihood(utt)
		if err != nil {
			t.Fatal(err)
		}
		want := f.ubm.MeanLogLikelihood(utt)
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("utt %d: quantized full LL %v, exact %v (Δ=%g)", i, got, want, got-want)
		}
	}
}

// TestPaddedDimensions runs the compiled path on a dimensionality that
// does not fill the stride (dim 6, stride 8), so the zero padding and
// the generic sweep's trailing block are both exercised.
func TestPaddedDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	centers := [][]float64{
		{0, 0, 0, 1, -1, 2}, {3, -2, 1, 0, 2, -1}, {-2, 2, -2, 2, 0, 1},
	}
	var data [][]float64
	for _, c := range centers {
		for i := 0; i < 80; i++ {
			row := make([]float64, len(c))
			for d := range row {
				row[d] = c[d] + 0.6*rng.NormFloat64()
			}
			data = append(data, row)
		}
	}
	model, err := Train(data, TrainConfig{Components: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.MeanLogLikelihood(data)
	if err != nil {
		t.Fatal(err)
	}
	want := model.MeanLogLikelihood(data)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("dim-6 quantized LL %v, exact %v", got, want)
	}
}

// TestShortlistEpsilon is the fast path's headline equivalence claim:
// at the default shortlist width the fast LLR stays within
// ShortlistEpsilon of the exact path on every test utterance, and any
// verdict with margin beyond ε is identical.
func TestShortlistEpsilon(t *testing.T) {
	f := loadMFCCFixture(t)
	ubm, spk := compileFixture(t, f)
	const threshold = 0.0
	for i, utt := range f.testUtterances() {
		exact := f.verifier.Score(utt)
		fast, err := ScoreShortlist(ubm, spk, utt, DefaultShortlistC)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(fast - exact); d > ShortlistEpsilon {
			t.Errorf("utt %d: |ΔLLR| = %g > ε = %g (exact %v, fast %v)",
				i, d, ShortlistEpsilon, exact, fast)
		}
		if math.Abs(exact-threshold) > ShortlistEpsilon {
			if (exact > threshold) != (fast > threshold) {
				t.Errorf("utt %d: verdict flipped (exact %v, fast %v)", i, exact, fast)
			}
		}
	}
}

// TestShortlistSweep sweeps C ∈ {1, 2, 4, 8, full}: the mean |ΔLLR|
// against the exact path must shrink (within a small slack — the error
// is a difference of two truncation terms, so per-utterance monotonicity
// is not guaranteed, but the mean must trend down) and land at the
// quantization floor at C = full. Verdicts must match the exact path at
// every C ≥ DefaultShortlistC for utterances with margin beyond ε.
func TestShortlistSweep(t *testing.T) {
	f := loadMFCCFixture(t)
	ubm, spk := compileFixture(t, f)
	utts := f.testUtterances()
	exact := make([]float64, len(utts))
	for i, utt := range utts {
		exact[i] = f.verifier.Score(utt)
	}
	widths := []int{1, 2, 4, 8, f.ubm.NumComponents()}
	meanErr := make([]float64, len(widths))
	for w, c := range widths {
		var sum float64
		for i, utt := range utts {
			fast, err := ScoreShortlist(ubm, spk, utt, c)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(fast - exact[i])
			if c >= DefaultShortlistC && math.Abs(exact[i]) > ShortlistEpsilon {
				if (exact[i] > 0) != (fast > 0) {
					t.Errorf("C=%d utt %d: verdict flipped (exact %v, fast %v)", c, i, exact[i], fast)
				}
			}
		}
		meanErr[w] = sum / float64(len(utts))
	}
	t.Logf("mean |ΔLLR| by C: %v → %v", widths, meanErr)
	for w := 1; w < len(widths); w++ {
		if meanErr[w] > meanErr[w-1]+1e-3 {
			t.Errorf("mean |ΔLLR| grew from C=%d (%g) to C=%d (%g)",
				widths[w-1], meanErr[w-1], widths[w], meanErr[w])
		}
	}
	if floor := meanErr[len(widths)-1]; floor > 1e-3 {
		t.Errorf("C=full error %g above quantization floor", floor)
	}
	if meanErr[0] < meanErr[len(widths)-1] {
		t.Error("C=1 error below C=full error: sweep is not exercising truncation")
	}
}

// TestFastScoringDeterministic pins partition independence: the fan-out
// across workers must produce bit-identical shortlists and scores at any
// GOMAXPROCS.
func TestFastScoringDeterministic(t *testing.T) {
	f := loadMFCCFixture(t)
	ubm, spk := compileFixture(t, f)
	frames := f.pool[:600] // above fastMinParallel, so the fan-out engages
	prev := runtime.GOMAXPROCS(1)
	serialSL, err := ubm.TopC(frames, DefaultShortlistC)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}
	serialScore, err := ScoreShortlist(ubm, spk, frames, DefaultShortlistC)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parSL, err := ubm.TopC(frames, DefaultShortlistC)
	if err != nil {
		t.Fatal(err)
	}
	parScore, err := ScoreShortlist(ubm, spk, frames, DefaultShortlistC)
	if err != nil {
		t.Fatal(err)
	}
	if serialScore != parScore {
		t.Errorf("score differs across worker counts: %v vs %v", serialScore, parScore)
	}
	for i := range serialSL.LL {
		if serialSL.LL[i] != parSL.LL[i] {
			t.Fatalf("frame %d LL differs: %v vs %v", i, serialSL.LL[i], parSL.LL[i])
		}
	}
	for i := range serialSL.Indices {
		if serialSL.Indices[i] != parSL.Indices[i] {
			t.Fatalf("index %d differs: %d vs %d", i, serialSL.Indices[i], parSL.Indices[i])
		}
	}
}

func TestTopCValidation(t *testing.T) {
	f := loadMFCCFixture(t)
	sm, _ := compileFixture(t, f)
	if _, err := sm.TopC(f.pool[:4], 0); err == nil {
		t.Error("C = 0 accepted")
	}
	if _, err := sm.TopC([][]float64{{1, 2}}, 2); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("dim mismatch: %v", err)
	}
	// C beyond the component count clamps to the full mixture.
	sl, err := sm.TopC(f.pool[:4], sm.NumComponents()+10)
	if err != nil {
		t.Fatal(err)
	}
	if sl.C != sm.NumComponents() {
		t.Errorf("C clamped to %d, want %d", sl.C, sm.NumComponents())
	}
	empty, err := sm.TopC(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(empty.MeanLL(), -1) {
		t.Errorf("empty input MeanLL = %v, want -Inf", empty.MeanLL())
	}
}

func TestShortlistScoringErrors(t *testing.T) {
	f := loadMFCCFixture(t)
	ubm, spk := compileFixture(t, f)
	frames := f.pool[:8]
	if _, err := spk.MeanLogLikelihoodShortlist(frames, nil); err == nil {
		t.Error("nil shortlist accepted")
	}
	sl, err := ubm.TopC(frames, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spk.MeanLogLikelihoodShortlist(frames[:4], sl); err == nil {
		t.Error("frame-count mismatch accepted")
	}
	if _, err := spk.MeanLogLikelihoodShortlist(frames, &Shortlist{C: 99}); err == nil {
		t.Error("oversized shortlist width accepted")
	}
	small, err := Train(f.pool[:200], TrainConfig{Components: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	smallSM, err := Compile(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScoreShortlist(ubm, smallSM, frames, 4); err == nil {
		t.Error("component-count mismatch accepted")
	}
	llr, err := ScoreShortlist(ubm, spk, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(llr, -1) {
		t.Errorf("empty frames LLR = %v, want -Inf", llr)
	}
}
