package gmm

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"voiceguard/internal/features"
	"voiceguard/internal/speech"
)

// randomGMM builds a k-component, dim-dimensional mixture with random
// means and variances; zeroWeight, when ≥ 0, names a component whose
// weight is exactly 0.
func randomGMM(rng *rand.Rand, k, dim, zeroWeight int) *GMM {
	g := &GMM{Weights: make([]float64, k), Means: newMatrix(k, dim), Vars: newMatrix(k, dim)}
	for c := 0; c < k; c++ {
		g.Weights[c] = 0.1 + rng.Float64()
		for d := 0; d < dim; d++ {
			g.Means[c][d] = rng.NormFloat64() * 3
			g.Vars[c][d] = 0.05 + rng.ExpFloat64()
		}
	}
	normalizeWeights(g.Weights)
	if zeroWeight >= 0 {
		g.Weights[zeroWeight] = 0
	}
	g.refreshNorm()
	return g
}

// TestExactKernelMatchesComponentLogLik holds the exact scoring path to
// the scalar componentLogLik loop bit for bit: per frame through
// logLikelihoods (the path MeanLogLikelihood fans out) and, where the
// kernel runs, per component and lane through mahaSweep itself. The
// shapes cover k not a multiple of 4, an odd dimension, a zero-weight
// component and frame counts that are not a whole number of lanes.
func TestExactKernelMatchesComponentLogLik(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cases := []struct{ k, dim, frames, zeroWeight int }{
		{k: 32, dim: 40, frames: 203, zeroWeight: -1},
		{k: 7, dim: 13, frames: 9, zeroWeight: 3},
		{k: 1, dim: 1, frames: 5, zeroWeight: -1},
		{k: 5, dim: 3, frames: 3, zeroWeight: 0},
		{k: 33, dim: 39, frames: 66, zeroWeight: 32},
	}
	for _, tc := range cases {
		g := randomGMM(rng, tc.k, tc.dim, tc.zeroWeight)
		frames := newMatrix(tc.frames, tc.dim)
		for _, x := range frames {
			for d := range x {
				x[d] = rng.NormFloat64() * 4
			}
		}
		frames[0][0] = math.Copysign(0, -1)
		want := make([]float64, tc.frames)
		for i, x := range frames {
			want[i] = g.LogLikelihood(x)
		}
		got := make([]float64, tc.frames)
		g.logLikelihoods(frames, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d dim=%d: frame %d log-likelihood %v, want %v", tc.k, tc.dim, i, got[i], want[i])
			}
		}
		if !exactKernel || tc.frames < mahaLanes {
			continue
		}
		xt := make([]float64, mahaLanes*tc.dim)
		maha := make([]float64, mahaLanes*tc.k)
		if !interleave(xt, frames[:mahaLanes]) {
			t.Fatal("interleave refused frames of the model's dimension")
		}
		mahaSweep(xt, g.Means, g.Vars, maha)
		for c := 0; c < tc.k; c++ {
			for j := 0; j < mahaLanes; j++ {
				wantLL := g.componentLogLik(c, frames[j])
				if gotLL := g.logConst[c] - 0.5*maha[c*mahaLanes+j]; math.Float64bits(gotLL) != math.Float64bits(wantLL) {
					t.Fatalf("k=%d dim=%d: component %d lane %d: %v, want %v", tc.k, tc.dim, c, j, gotLL, wantLL)
				}
			}
		}
	}
}

// TestExactKernelRaggedFrames checks that a frame whose length differs
// from the model's dimension leaves its group, and every later frame,
// to the scalar loop, which scores it exactly as before.
func TestExactKernelRaggedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGMM(rng, 6, 5, -1)
	frames := newMatrix(11, 5)
	for _, x := range frames {
		for d := range x {
			x[d] = rng.NormFloat64()
		}
	}
	frames[6] = frames[6][:3] // scalar scoring sums over the frame's own length
	got := make([]float64, len(frames))
	g.logLikelihoods(frames, got)
	for i, x := range frames {
		if want := g.LogLikelihood(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("frame %d: %v, want %v", i, got[i], want)
		}
	}
}

// mfccFixture is a production-shaped verification scenario: a
// 32-component UBM over real MFCC frames from the repo's own speech
// synthesis and a speaker MAP-adapted from one utterance. Building it
// runs EM once, so benchmarks share one instance.
type mfccFixture struct {
	verifier *Verifier
	pool     [][]float64 // all frames, UBM training set
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
	var enroll [][]float64
	for _, u := range utts {
		fr, err := features.Extract(u.Audio, features.DefaultMFCCConfig())
		if err != nil {
			return nil, err
		}
		f.pool = append(f.pool, fr...)
		if len(enroll) == 0 && u.Speaker == utts[0].Speaker {
			enroll = fr
		}
	}
	ubm, err := TrainUBM(f.pool, TrainConfig{Components: 32, Seed: 1})
	if err != nil {
		return nil, err
	}
	f.verifier, err = NewVerifier(ubm, enroll, 16)
	if err != nil {
		return nil, err
	}
	return f, nil
}

var sinkScore float64

// BenchmarkExactScore times one exact-path verification score of a
// 300-frame utterance: the MAP-adapted speaker model and the 32-component
// UBM, both over the fixture's MFCC frames.
func BenchmarkExactScore(b *testing.B) {
	f := loadMFCCFixture(b)
	frames := f.pool[:300]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkScore = f.verifier.Score(frames)
	}
}
