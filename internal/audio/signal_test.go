package audio

import (
	"math"
	"testing"
	"testing/quick"
)

func sine(freq, rate, dur, amp float64) *Signal {
	s := NewSignal(dur, rate)
	for i := range s.Samples {
		s.Samples[i] = amp * math.Sin(2*math.Pi*freq*float64(i)/rate)
	}
	return s
}

func TestNewSignal(t *testing.T) {
	s := NewSignal(0.5, 16000)
	if s.Len() != 8000 {
		t.Errorf("len = %d, want 8000", s.Len())
	}
	if math.Abs(s.Duration()-0.5) > 1e-9 {
		t.Errorf("duration = %v", s.Duration())
	}
	if NewSignal(-1, 16000).Len() != 0 {
		t.Error("negative duration should give empty signal")
	}
	if (&Signal{}).Duration() != 0 {
		t.Error("zero-rate duration should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := sine(440, 16000, 0.01, 1)
	c := s.Clone()
	c.Samples[0] = 42
	if s.Samples[0] == 42 {
		t.Error("Clone must not alias")
	}
}

func TestRMSAndPeak(t *testing.T) {
	s := sine(100, 8000, 1, 1)
	if got := s.RMS(); math.Abs(got-1/math.Sqrt2) > 1e-3 {
		t.Errorf("sine RMS = %v, want %v", got, 1/math.Sqrt2)
	}
	if got := s.Peak(); math.Abs(got-1) > 1e-3 {
		t.Errorf("peak = %v, want 1", got)
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) should be 0")
	}
}

func TestNormalize(t *testing.T) {
	s := sine(100, 8000, 0.1, 0.2)
	s.Normalize(0.9)
	if math.Abs(s.Peak()-0.9) > 1e-6 {
		t.Errorf("normalized peak = %v", s.Peak())
	}
	z := NewSignal(0.1, 8000)
	z.Normalize(0.9) // must not panic or change
	if z.Peak() != 0 {
		t.Error("silent normalize should stay silent")
	}
}

func TestPreEmphasis(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	y := PreEmphasis(x, 0.97)
	if y[0] != 1 {
		t.Errorf("y[0] = %v", y[0])
	}
	for i := 1; i < len(y); i++ {
		if math.Abs(y[i]-0.03) > 1e-12 {
			t.Errorf("y[%d] = %v, want 0.03", i, y[i])
		}
	}
}

func TestFrame(t *testing.T) {
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i)
	}
	fr := Frame(x, 4, 3)
	if len(fr) != 3 {
		t.Fatalf("frames = %d, want 3", len(fr))
	}
	if fr[2][0] != 6 || fr[2][3] != 9 {
		t.Errorf("frame 2 = %v", fr[2])
	}
	if Frame(x, 0, 1) != nil || Frame(x, 4, 0) != nil || Frame(x[:2], 4, 1) != nil {
		t.Error("invalid framing should return nil")
	}
}

func TestScaleProperty(t *testing.T) {
	f := func(vals []float64, g float64) bool {
		if math.IsNaN(g) || math.IsInf(g, 0) || len(vals) > 1000 {
			return true
		}
		g = math.Mod(g, 100)
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			clean = append(clean, math.Mod(v, 100))
		}
		s := &Signal{Samples: clean, Rate: 100}
		before := s.RMS()
		s.Scale(g)
		after := s.RMS()
		return math.Abs(after-math.Abs(g)*before) <= 1e-6*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
