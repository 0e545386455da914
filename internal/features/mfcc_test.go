package features

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/speech"
)

func toneSignal(freq, rate, dur float64) *audio.Signal {
	s := audio.NewSignal(dur, rate)
	for i := range s.Samples {
		s.Samples[i] = 0.5 * math.Sin(2*math.Pi*freq*float64(i)/rate)
	}
	return s
}

func TestMelScaleRoundTrip(t *testing.T) {
	for _, hz := range []float64{0, 100, 700, 1000, 4000, 8000} {
		back := InvMelScale(MelScale(hz))
		if math.Abs(back-hz) > 1e-6*(1+hz) {
			t.Errorf("mel round trip %v -> %v", hz, back)
		}
	}
	// Mel scale is monotone.
	prev := -1.0
	for hz := 0.0; hz < 8000; hz += 100 {
		m := MelScale(hz)
		if m <= prev {
			t.Fatalf("mel not monotone at %v Hz", hz)
		}
		prev = m
	}
	// 1000 Hz ≈ 1000 mel by definition.
	if m := MelScale(1000); math.Abs(m-999.99) > 1 {
		t.Errorf("MelScale(1000) = %v, want ≈1000", m)
	}
}

func TestExtractShape(t *testing.T) {
	s := toneSignal(300, 16000, 0.5)
	cfg := DefaultMFCCConfig()
	feats, err := Extract(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 s at 10 ms shift with 25 ms window → ~48 frames.
	if len(feats) < 40 || len(feats) > 50 {
		t.Errorf("frames = %d", len(feats))
	}
	wantDim := 2 * (cfg.NumCoeffs + 1)
	for _, row := range feats {
		if len(row) != wantDim {
			t.Fatalf("dim = %d, want %d", len(row), wantDim)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite feature value")
			}
		}
	}
}

func TestExtractNoDeltasNoCMVN(t *testing.T) {
	s := toneSignal(300, 16000, 0.3)
	cfg := DefaultMFCCConfig()
	cfg.Deltas = false
	cfg.CMVN = false
	feats, err := Extract(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats[0]) != cfg.NumCoeffs+1 {
		t.Errorf("dim = %d, want %d", len(feats[0]), cfg.NumCoeffs+1)
	}
}

func TestExtractCMVNNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := audio.NewSignal(1, 16000)
	for i := range s.Samples {
		s.Samples[i] = 0.3 * rng.NormFloat64()
	}
	feats, err := Extract(s, DefaultMFCCConfig())
	if err != nil {
		t.Fatal(err)
	}
	dim := len(feats[0])
	for d := 0; d < dim; d++ {
		var mean, varsum float64
		for _, row := range feats {
			mean += row[d]
		}
		mean /= float64(len(feats))
		for _, row := range feats {
			varsum += (row[d] - mean) * (row[d] - mean)
		}
		varsum /= float64(len(feats))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("dim %d mean = %v", d, mean)
		}
		if math.Abs(varsum-1) > 1e-6 {
			t.Errorf("dim %d var = %v", d, varsum)
		}
	}
}

func TestExtractErrors(t *testing.T) {
	short := audio.NewSignal(0.01, 16000)
	if _, err := Extract(short, DefaultMFCCConfig()); !errors.Is(err, ErrTooShort) {
		t.Errorf("short err = %v, want ErrTooShort", err)
	}
	s := toneSignal(300, 16000, 0.3)
	bad := []MFCCConfig{
		{FrameLength: 0, FrameShift: 0.01, NumFilters: 24, NumCoeffs: 19},
		{FrameLength: 0.025, FrameShift: 0, NumFilters: 24, NumCoeffs: 19},
		{FrameLength: 0.025, FrameShift: 0.01, NumFilters: 1, NumCoeffs: 0},
		{FrameLength: 0.025, FrameShift: 0.01, NumFilters: 24, NumCoeffs: 30},
		{FrameLength: 0.025, FrameShift: 0.01, NumFilters: 24, NumCoeffs: 19, LowFreq: 5000, HighFreq: 100},
		{FrameLength: 0.025, FrameShift: 0.01, NumFilters: 24, NumCoeffs: 19, HighFreq: 99999},
	}
	for i, cfg := range bad {
		if _, err := Extract(s, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDifferentSpeakersYieldDifferentFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := speech.RandomProfile("a", rng)
	b := speech.RandomProfile("b", rng)
	// Force a clear spectral difference for the smoke test.
	a.TractScale = 0.92
	b.TractScale = 1.15
	render := func(p speech.Profile) [][]float64 {
		synth, err := speech.NewSynthesizer(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := synth.SayDigits("123456")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultMFCCConfig()
		cfg.CMVN = false
		feats, err := Extract(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return feats
	}
	mean := func(f [][]float64) []float64 {
		m := make([]float64, len(f[0]))
		for _, row := range f {
			for d, v := range row {
				m[d] += v
			}
		}
		for d := range m {
			m[d] /= float64(len(f))
		}
		return m
	}
	ma, mb := mean(render(a)), mean(render(b))
	var dist float64
	for d := range ma {
		dist += (ma[d] - mb[d]) * (ma[d] - mb[d])
	}
	if math.Sqrt(dist) < 0.5 {
		t.Errorf("mean MFCC distance %v too small to separate speakers", math.Sqrt(dist))
	}
}

func TestDeltasOfConstantAreZero(t *testing.T) {
	rows := sliceRows(make([]float64, 10*6), 6)
	for _, row := range rows {
		copy(row, []float64{3, -1, 7, 99, 99, 99}) // 99: must be overwritten
	}
	writeDeltas(rows, 3, 2)
	for i, row := range rows {
		for j, v := range row[3:] {
			if v != 0 {
				t.Errorf("delta[%d][%d] = %v, want 0", i, j, v)
			}
		}
	}
	writeDeltas(nil, 3, 2) // must not panic
}

func TestDeltasOfLinearRampAreConstant(t *testing.T) {
	rows := sliceRows(make([]float64, 20*2), 2)
	for i, row := range rows {
		row[0] = 2 * float64(i)
	}
	writeDeltas(rows, 1, 2)
	// Interior deltas of a slope-2 ramp are exactly 2.
	for i := 2; i < 18; i++ {
		if math.Abs(rows[i][1]-2) > 1e-9 {
			t.Errorf("delta[%d] = %v, want 2", i, rows[i][1])
		}
	}
}

func TestApplyCMVNEmpty(t *testing.T) {
	ApplyCMVN(nil) // must not panic
}

func BenchmarkExtract(b *testing.B) {
	s := toneSignal(300, 16000, 2)
	cfg := DefaultMFCCConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractServed is BenchmarkExtract in the identity stage's
// shape: the default front-end with CMVN off, as core sets it.
func BenchmarkExtractServed(b *testing.B) {
	s := toneSignal(300, 16000, 2)
	cfg := DefaultMFCCConfig()
	cfg.CMVN = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
