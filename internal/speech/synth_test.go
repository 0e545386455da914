package speech

import (
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/dsp"
)

func testProfile(name string) Profile {
	return Profile{
		Name:           name,
		F0Mean:         120,
		F0Range:        15,
		TractScale:     1.0,
		BandwidthScale: 1.0,
		Tilt:           0.3,
		Jitter:         0.01,
		Shimmer:        0.03,
		Breathiness:    0.05,
		Rate:           1.0,
	}
}

func TestProfileValidate(t *testing.T) {
	good := testProfile("ok")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Profile)
	}{
		{"f0 low", func(p *Profile) { p.F0Mean = 10 }},
		{"f0 high", func(p *Profile) { p.F0Mean = 900 }},
		{"range", func(p *Profile) { p.F0Range = -1 }},
		{"tract", func(p *Profile) { p.TractScale = 0.1 }},
		{"bw", func(p *Profile) { p.BandwidthScale = 10 }},
		{"tilt", func(p *Profile) { p.Tilt = 2 }},
		{"jitter", func(p *Profile) { p.Jitter = 0.5 }},
		{"shimmer", func(p *Profile) { p.Shimmer = 0.9 }},
		{"breath", func(p *Profile) { p.Breathiness = 2 }},
		{"rate", func(p *Profile) { p.Rate = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			p := testProfile("bad")
			m.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestNewSynthesizerRejectsInvalid(t *testing.T) {
	p := testProfile("bad")
	p.F0Mean = 1
	if _, err := NewSynthesizer(p, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error")
	}
}

func TestSayDigitsProducesVoicedAudio(t *testing.T) {
	synth, err := NewSynthesizer(testProfile("s"), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := synth.SayDigits("472913")
	if err != nil {
		t.Fatal(err)
	}
	if s.Rate != DefaultRate {
		t.Errorf("rate = %v", s.Rate)
	}
	if s.Duration() < 1.0 || s.Duration() > 8.0 {
		t.Errorf("duration = %v s, want a speech-like length", s.Duration())
	}
	if s.RMS() < 0.01 {
		t.Errorf("RMS = %v, audio is near-silent", s.RMS())
	}
	if s.Peak() > 1.0 {
		t.Errorf("peak = %v, exceeds full scale", s.Peak())
	}
}

func TestSayDigitsRejectsNonDigits(t *testing.T) {
	synth, err := NewSynthesizer(testProfile("s"), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.SayDigits("12a4"); err == nil {
		t.Error("expected error for non-digit input")
	}
}

func TestRenderEmpty(t *testing.T) {
	synth, err := NewSynthesizer(testProfile("s"), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s := synth.Render(nil)
	if s.Len() != 0 || s.Rate != DefaultRate {
		t.Errorf("empty render: len=%d rate=%v", s.Len(), s.Rate)
	}
}

// dominantF0 estimates the fundamental via autocorrelation over voiced
// regions.
func dominantF0(x []float64, rate float64) float64 {
	// Use the middle chunk, likely voiced.
	n := len(x)
	seg := x[n/3 : n/3+int(rate*0.1)]
	minLag := int(rate / 400)
	maxLag := int(rate / 60)
	best, bestLag := -1.0, 0
	for lag := minLag; lag <= maxLag; lag++ {
		var c float64
		for i := 0; i+lag < len(seg); i++ {
			c += seg[i] * seg[i+lag]
		}
		if c > best {
			best = c
			bestLag = lag
		}
	}
	if bestLag == 0 {
		return 0
	}
	return rate / float64(bestLag)
}

func TestSynthesisF0MatchesProfile(t *testing.T) {
	for _, f0 := range []float64{100, 150, 220} {
		p := testProfile("f0test")
		p.F0Mean = f0
		p.F0Range = 5
		p.Jitter = 0.002
		synth, err := NewSynthesizer(p, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		// "99" is nearly all voiced (N AY N, N AY N).
		s, err := synth.SayDigits("99")
		if err != nil {
			t.Fatal(err)
		}
		got := dominantF0(s.Samples, s.Rate)
		// Allow 15% tolerance: declination plus intonation shift the mean.
		if math.Abs(got-f0)/f0 > 0.15 {
			t.Errorf("F0Mean %v: estimated %v", f0, got)
		}
	}
}

func TestTractScaleShiftsSpectrum(t *testing.T) {
	render := func(scale float64) []float64 {
		p := testProfile("spec")
		p.TractScale = scale
		synth, err := NewSynthesizer(p, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := synth.SayDigits("55")
		if err != nil {
			t.Fatal(err)
		}
		return s.Samples
	}
	centroid := func(x []float64) float64 {
		spec := dsp.Magnitudes(dsp.FFTReal(x[:4096]))
		var num, den float64
		for k := 1; k < len(spec)/2; k++ {
			f := dsp.BinFrequency(k, 4096, DefaultRate)
			num += f * spec[k]
			den += spec[k]
		}
		return num / den
	}
	small := centroid(render(0.9))
	large := centroid(render(1.15))
	if large <= small {
		t.Errorf("spectral centroid should rise with TractScale: %v vs %v", small, large)
	}
}

func TestRandomProfilesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandomProfile("a", rng)
	b := RandomProfile("b", rng)
	if a.F0Mean == b.F0Mean && a.TractScale == b.TractScale {
		t.Error("random profiles identical")
	}
	for i := 0; i < 20; i++ {
		p := RandomProfile("x", rng)
		if err := p.Validate(); err != nil {
			t.Errorf("random profile %d invalid: %v", i, err)
		}
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandomProfile("a", rng)
	b := RandomProfile("b", rng)
	at0 := a.Interpolate(b, 0)
	if at0.F0Mean != a.F0Mean || at0.TractScale != a.TractScale {
		t.Error("t=0 should equal source")
	}
	at1 := a.Interpolate(b, 1)
	if at1.F0Mean != b.F0Mean || at1.TractScale != b.TractScale {
		t.Error("t=1 should equal target")
	}
	mid := a.Interpolate(b, 0.5)
	want := (a.F0Mean + b.F0Mean) / 2
	if math.Abs(mid.F0Mean-want) > 1e-9 {
		t.Errorf("midpoint F0 = %v, want %v", mid.F0Mean, want)
	}
}

func TestDigitsToPhonemes(t *testing.T) {
	seq, err := DigitsToPhonemes("05")
	if err != nil {
		t.Fatal(err)
	}
	// SIL + (Z IY R OW) + SIL + (F AY V) + SIL = 10
	if len(seq) != 10 {
		t.Errorf("len = %d, want 10", len(seq))
	}
	if seq[0].Name != "SIL" || seq[1].Name != "Z" || seq[6].Name != "F" {
		t.Errorf("sequence = %v", seq)
	}
	if _, err := DigitsToPhonemes("1x"); err == nil {
		t.Error("expected error")
	}
}

func TestAllDigitsHavePhonemes(t *testing.T) {
	for d := '0'; d <= '9'; d++ {
		seq, err := DigitsToPhonemes(string(d))
		if err != nil {
			t.Fatalf("digit %c: %v", d, err)
		}
		if len(seq) < 3 {
			t.Errorf("digit %c has too few phonemes", d)
		}
		for _, ph := range seq {
			if _, ok := phonemes[ph.Name]; !ok {
				t.Errorf("digit %c refers to unknown phoneme %q", d, ph.Name)
			}
		}
	}
}

func TestPhonemeInventoryConsistency(t *testing.T) {
	for name, ph := range phonemes {
		if ph.Dur <= 0 {
			t.Errorf("%s: nonpositive duration", name)
		}
		for k := 0; k < 4; k++ {
			if ph.F[k] <= 0 || ph.BW[k] <= 0 {
				t.Errorf("%s: formant %d invalid (F=%v BW=%v)", name, k, ph.F[k], ph.BW[k])
			}
		}
		if ph.Amp < 0 || ph.Amp > 1 {
			t.Errorf("%s: amp %v", name, ph.Amp)
		}
		if ph.Frication < 0 || ph.Frication > 1 {
			t.Errorf("%s: frication %v", name, ph.Frication)
		}
	}
}

func TestRosenbergPulseShape(t *testing.T) {
	if rosenberg(0) != 0 {
		t.Error("pulse should start at 0")
	}
	peak := rosenberg(0.4)
	if math.Abs(peak-1) > 1e-9 {
		t.Errorf("peak = %v, want 1", peak)
	}
	if rosenberg(0.7) != 0 || rosenberg(0.99) != 0 {
		t.Error("closed phase should be 0")
	}
	// Monotone rise on the open phase.
	prev := -1.0
	for x := 0.0; x < 0.4; x += 0.01 {
		v := rosenberg(x)
		if v < prev {
			t.Fatalf("pulse not monotone at %v", x)
		}
		prev = v
	}
}

func BenchmarkSayDigits(b *testing.B) {
	synth, err := NewSynthesizer(testProfile("bench"), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.SayDigits("472913"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRateScalesDuration(t *testing.T) {
	render := func(rate float64) float64 {
		p := testProfile("rate")
		p.Rate = rate
		synth, err := NewSynthesizer(p, rand.New(rand.NewSource(40)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := synth.SayDigits("123456")
		if err != nil {
			t.Fatal(err)
		}
		return s.Duration()
	}
	slow := render(0.7)
	fast := render(1.4)
	// Rate divides phoneme durations: doubling the rate halves duration.
	if ratio := slow / fast; math.Abs(ratio-2) > 0.1 {
		t.Errorf("duration ratio = %v, want ≈2", ratio)
	}
}

func TestBreathinessAddsNoise(t *testing.T) {
	render := func(breath float64) []float64 {
		p := testProfile("breath")
		p.Breathiness = breath
		synth, err := NewSynthesizer(p, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := synth.SayDigits("99")
		if err != nil {
			t.Fatal(err)
		}
		return s.Samples
	}
	// Aspiration noise raises the energy between the harmonics. Measure
	// spectral flatness (geometric/arithmetic mean ratio) of a voiced
	// mid-utterance segment: noise fills the inter-harmonic valleys and
	// raises flatness.
	hfFraction := func(x []float64) float64 {
		seg := x[len(x)/3 : len(x)/3+4096]
		spec := dsp.Magnitudes(dsp.FFTReal(seg))
		var logSum, sum float64
		n := 0
		for k := 1; k < 2048; k++ {
			f := dsp.BinFrequency(k, 4096, DefaultRate)
			if f < 300 || f > 3000 {
				continue
			}
			e := spec[k]*spec[k] + 1e-12
			logSum += math.Log(e)
			sum += e
			n++
		}
		return math.Exp(logSum/float64(n)) / (sum / float64(n))
	}
	clean := hfFraction(render(0.0))
	breathy := hfFraction(render(0.8))
	if breathy <= clean {
		t.Errorf("breathiness should add high-band noise: %v vs %v", breathy, clean)
	}
}
