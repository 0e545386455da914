package features

// legacyExtract is the seed (pre-plan) MFCC front-end kept in test code:
// per-call filterbank/window/DCT builds, a full complex FFT per frame,
// one row allocation per frame, serial loop. The planned Extract is
// checked against it within float tolerance and benchmarked against it.

import (
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
	"voiceguard/internal/stats"
)

func legacyExtract(s *audio.Signal, cfg MFCCConfig) ([][]float64, error) {
	if err := cfg.validate(s.Rate); err != nil {
		return nil, err
	}
	frameLen := int(cfg.FrameLength * s.Rate)
	frameShift := int(cfg.FrameShift * s.Rate)
	samples := s.Samples
	if cfg.PreEmphasis > 0 {
		samples = audio.PreEmphasis(samples, cfg.PreEmphasis)
	}
	frames := audio.Frame(samples, frameLen, frameShift)
	if len(frames) < 2 {
		return nil, ErrTooShort
	}
	fftSize := dsp.NextPow2(frameLen)
	high := cfg.HighFreq
	if stats.IsZero(high) {
		high = s.Rate / 2
	}
	bank := melFilterbank(cfg.NumFilters, fftSize, s.Rate, cfg.LowFreq, high)
	win, err := dsp.WindowHamming.SharedCoefficients(frameLen)
	if err != nil {
		return nil, err
	}
	dct := dctMatrix(cfg.NumCoeffs, cfg.NumFilters)

	base := make([][]float64, len(frames))
	buf := make([]complex128, fftSize)
	logFB := make([]float64, cfg.NumFilters)
	for fi, frame := range frames {
		for i := 0; i < frameLen; i++ {
			buf[i] = complex(frame[i]*win[i], 0)
		}
		for i := frameLen; i < fftSize; i++ {
			buf[i] = 0
		}
		spec := dsp.FFT(buf)
		power := dsp.PowerSpectrum(spec[:fftSize/2+1])
		var energy float64
		for _, v := range frame {
			energy += v * v
		}
		logE := math.Log(energy + 1e-12)
		for m, filt := range bank {
			var acc float64
			for _, tap := range filt {
				acc += power[tap.bin] * tap.weight
			}
			logFB[m] = math.Log(acc + 1e-12)
		}
		row := make([]float64, cfg.NumCoeffs+1)
		for k := 0; k < cfg.NumCoeffs; k++ {
			var acc float64
			for m := 0; m < cfg.NumFilters; m++ {
				acc += dct[k][m] * logFB[m]
			}
			row[k] = acc
		}
		row[cfg.NumCoeffs] = logE
		base[fi] = row
	}
	out := base
	if cfg.Deltas {
		deltas := refDeltas(base, 2)
		out = make([][]float64, len(base))
		for i := range base {
			row := make([]float64, 0, 2*len(base[i]))
			row = append(row, base[i]...)
			row = append(row, deltas[i]...)
			out[i] = row
		}
	}
	if cfg.CMVN {
		ApplyCMVN(out)
	}
	return out, nil
}

// refExtract is the planned front-end as it was before the transposed
// DCT: the same frame loop, run serially, with the row-major DCT-II
// matrix, the base cepstra and their deltas in matrices of their own
// copied into the output, and CMVN taking a square root per element.
// The planned Extract must reproduce it bit for bit.
func refExtract(s *audio.Signal, cfg MFCCConfig) ([][]float64, error) {
	if err := cfg.validate(s.Rate); err != nil {
		return nil, err
	}
	frameLen := int(cfg.FrameLength * s.Rate)
	frameShift := int(cfg.FrameShift * s.Rate)
	frames := audio.Frame(s.Samples, frameLen, frameShift)
	if len(frames) < 2 {
		return nil, ErrTooShort
	}
	fftSize := dsp.NextPow2(frameLen)
	high := cfg.HighFreq
	if stats.IsZero(high) {
		high = s.Rate / 2
	}
	bank := melFilterbank(cfg.NumFilters, fftSize, s.Rate, cfg.LowFreq, high)
	win, err := dsp.WindowHamming.SharedCoefficients(frameLen)
	if err != nil {
		return nil, err
	}
	dct := dctMatrix(cfg.NumCoeffs, cfg.NumFilters)

	rowW := cfg.NumCoeffs + 1
	base := sliceRows(make([]float64, len(frames)*rowW), rowW)
	plan := dsp.PlanFFT(fftSize)
	xbuf := make([]float64, fftSize)
	power := make([]float64, fftSize/2+1)
	logFB := make([]float64, cfg.NumFilters)
	for fi, frame := range frames {
		var energy float64
		if alpha := cfg.PreEmphasis; alpha > 0 {
			var prev float64
			if start := fi * frameShift; start > 0 {
				prev = s.Samples[start-1]
			}
			for i := 0; i < frameLen; i++ {
				v := frame[i] - alpha*prev
				prev = frame[i]
				xbuf[i] = v * win[i]
				energy += v * v
			}
		} else {
			for i := 0; i < frameLen; i++ {
				xbuf[i] = frame[i] * win[i]
				energy += frame[i] * frame[i]
			}
		}
		if err := plan.RealPower(power, xbuf); err != nil {
			return nil, err
		}
		for m, filt := range bank {
			var acc float64
			for _, tap := range filt {
				acc += power[tap.bin] * tap.weight
			}
			logFB[m] = math.Log(acc + 1e-12)
		}
		row := base[fi]
		for k := 0; k < cfg.NumCoeffs; k++ {
			var acc float64
			for m := 0; m < cfg.NumFilters; m++ {
				acc += dct[k][m] * logFB[m]
			}
			row[k] = acc
		}
		row[cfg.NumCoeffs] = math.Log(energy + 1e-12)
	}
	out := base
	if cfg.Deltas {
		deltas := refDeltas(base, 2)
		out = sliceRows(make([]float64, len(base)*2*rowW), 2*rowW)
		for i := range base {
			copy(out[i], base[i])
			copy(out[i][rowW:], deltas[i])
		}
	}
	if cfg.CMVN {
		refApplyCMVN(out)
	}
	return out, nil
}

// dctMatrix returns the DCT-II basis rows 1..numCoeffs, row-major.
func dctMatrix(numCoeffs, numFilters int) [][]float64 {
	m := make([][]float64, numCoeffs)
	norm := math.Sqrt(2 / float64(numFilters))
	for k := 0; k < numCoeffs; k++ {
		row := make([]float64, numFilters)
		for n := 0; n < numFilters; n++ {
			row[n] = norm * math.Cos(math.Pi*float64(k+1)*(float64(n)+0.5)/float64(numFilters))
		}
		m[k] = row
	}
	return m
}

// refDeltas is the regression-delta loop as it was before writeDeltas:
// serial, into a matrix of its own.
func refDeltas(feats [][]float64, width int) [][]float64 {
	n := len(feats)
	dim := len(feats[0])
	var denom float64
	for w := 1; w <= width; w++ {
		denom += 2 * float64(w*w)
	}
	out := sliceRows(make([]float64, n*dim), dim)
	for i, row := range out {
		for d := 0; d < dim; d++ {
			var num float64
			for w := 1; w <= width; w++ {
				lo := max(i-w, 0)
				hi := min(i+w, n-1)
				num += float64(w) * (feats[hi][d] - feats[lo][d])
			}
			row[d] = num / denom
		}
	}
	return out
}

// refApplyCMVN is ApplyCMVN with a square root per element.
func refApplyCMVN(feats [][]float64) {
	dim := len(feats[0])
	mean := make([]float64, dim)
	for _, row := range feats {
		for d, v := range row {
			mean[d] += v
		}
	}
	n := float64(len(feats))
	for d := range mean {
		mean[d] /= n
	}
	variance := make([]float64, dim)
	for _, row := range feats {
		for d, v := range row {
			diff := v - mean[d]
			variance[d] += diff * diff
		}
	}
	for d := range variance {
		variance[d] /= n
		if variance[d] < 1e-12 {
			variance[d] = 1e-12
		}
	}
	for _, row := range feats {
		for d := range row {
			row[d] = (row[d] - mean[d]) / math.Sqrt(variance[d])
		}
	}
}

func benchUtterance(tb testing.TB, seconds float64) *audio.Signal {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	n := int(seconds * 16000)
	samples := make([]float64, n)
	for i := range samples {
		// Speech-ish: a few harmonics plus noise, so the filterbank sees
		// non-degenerate energy.
		t := float64(i) / 16000
		samples[i] = 0.5*math.Sin(2*math.Pi*180*t) +
			0.3*math.Sin(2*math.Pi*360*t) +
			0.1*rng.NormFloat64()
	}
	return &audio.Signal{Rate: 16000, Samples: samples}
}

// TestExtractMatchesLegacy compares the planned front-end against the
// seed implementation across configurations (deltas/CMVN on and off).
func TestExtractMatchesLegacy(t *testing.T) {
	sig := benchUtterance(t, 1.2)
	for _, cfg := range []MFCCConfig{
		DefaultMFCCConfig(),
		{FrameLength: 0.025, FrameShift: 0.010, NumFilters: 24, NumCoeffs: 19,
			LowFreq: 60, PreEmphasis: 0.97},
		{FrameLength: 0.020, FrameShift: 0.010, NumFilters: 20, NumCoeffs: 12,
			LowFreq: 100, HighFreq: 6000, Deltas: true},
	} {
		want, err := legacyExtract(sig, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Extract(sig, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: %d rows, want %d", cfg, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("cfg %+v row %d: width %d, want %d", cfg, i, len(got[i]), len(want[i]))
			}
			for d := range want[i] {
				if math.Abs(got[i][d]-want[i][d]) > 1e-7*(1+math.Abs(want[i][d])) {
					t.Fatalf("cfg %+v row %d dim %d: planned %v vs legacy %v",
						cfg, i, d, got[i][d], want[i][d])
				}
			}
		}
	}
}

// TestExtractMatchesReference holds Extract to refExtract bit for bit:
// TestExtractMatchesLegacy's three configurations plus the identity
// stage's (the default with CMVN off), on utterances whose frame counts
// split unevenly into parallel blocks. CI runs it at -cpu=1,4, so the
// per-block scratch is checked both in one block and across four.
func TestExtractMatchesReference(t *testing.T) {
	served := DefaultMFCCConfig()
	served.CMVN = false
	cfgs := []MFCCConfig{
		DefaultMFCCConfig(),
		{FrameLength: 0.025, FrameShift: 0.010, NumFilters: 24, NumCoeffs: 19,
			LowFreq: 60, PreEmphasis: 0.97},
		{FrameLength: 0.020, FrameShift: 0.010, NumFilters: 20, NumCoeffs: 12,
			LowFreq: 100, HighFreq: 6000, Deltas: true},
		served,
	}
	// 1.2 s gives 118 frames at a 25 ms window; the others give frame
	// counts of 2, 7 (below the fan-out threshold), 9, 13, 31 and 201.
	for _, seconds := range []float64{1.2, 0.035, 0.085, 0.105, 0.145, 0.325, 2.025} {
		sig := benchUtterance(t, seconds)
		for _, cfg := range cfgs {
			want, err := refExtract(sig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Extract(sig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v s, cfg %+v: %d rows, want %d", seconds, cfg, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%v s, cfg %+v row %d: width %d, want %d", seconds, cfg, i, len(got[i]), len(want[i]))
				}
				for d := range want[i] {
					if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
						t.Fatalf("%v s, cfg %+v row %d dim %d: %v, want %v", seconds, cfg, i, d, got[i][d], want[i][d])
					}
				}
			}
		}
	}
}

// TestPreEmphasisInFrameLoop pins the per-frame pre-emphasis to the
// path it replaced: the whole signal pre-emphasized by
// audio.PreEmphasis, then framed without emphasis. Every coefficient
// must keep its bits.
func TestPreEmphasisInFrameLoop(t *testing.T) {
	sig := benchUtterance(t, 1.2)
	for _, cfg := range []MFCCConfig{
		DefaultMFCCConfig(),
		{FrameLength: 0.025, FrameShift: 0.010, NumFilters: 24, NumCoeffs: 19,
			LowFreq: 60, PreEmphasis: 0.97},
		{FrameLength: 0.020, FrameShift: 0.010, NumFilters: 20, NumCoeffs: 12,
			LowFreq: 100, HighFreq: 6000, Deltas: true},
	} {
		pre, plain := sig, cfg
		if cfg.PreEmphasis > 0 {
			pre = &audio.Signal{Samples: audio.PreEmphasis(sig.Samples, cfg.PreEmphasis), Rate: sig.Rate}
			plain.PreEmphasis = 0
		}
		want, err := Extract(pre, plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Extract(sig, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: %d rows, want %d", cfg, len(got), len(want))
		}
		for i := range want {
			for d := range want[i] {
				if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
					t.Fatalf("cfg %+v row %d dim %d: %v, want %v", cfg, i, d, got[i][d], want[i][d])
				}
			}
		}
	}
}

// TestExtractDeterministic pins the fan-out determinism contract: repeat
// runs must be bit-identical. (-cpu=1,4 in CI varies the worker count.)
func TestExtractDeterministic(t *testing.T) {
	sig := benchUtterance(t, 0.8)
	cfg := DefaultMFCCConfig()
	a, err := Extract(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] { //lint:allow floatcmp determinism contract: repeat runs must be bit-identical
				t.Fatalf("row %d dim %d: %v != %v", i, d, a[i][d], b[i][d])
			}
		}
	}
}

// BenchmarkExtractLegacy is the seed-path twin of BenchmarkExtract in
// mfcc_test.go (same signal and config), so the pair reads directly as
// before/after.
func BenchmarkExtractLegacy(b *testing.B) {
	s := toneSignal(300, 16000, 2)
	cfg := DefaultMFCCConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacyExtract(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
