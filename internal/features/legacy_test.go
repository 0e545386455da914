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
		deltas := Deltas(base, 2)
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
