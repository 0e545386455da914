package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFARFRRBasics(t *testing.T) {
	s := &ScoreSet{
		Genuine:  []float64{1, 2, 3, 4},
		Impostor: []float64{-2, -1, 0, 1},
	}
	tests := []struct {
		th       float64
		far, frr float64
	}{
		{0.5, 0.25, 0}, // one impostor (1) accepted
		{1.0, 0.25, 0}, // genuine 1 accepted (>=), impostor 1 accepted
		{1.5, 0, 0.25}, // genuine 1 rejected
		{-3, 1, 0},     // everything accepted
		{100, 0, 1},    // everything rejected
	}
	for _, tt := range tests {
		if got := s.FAR(tt.th); math.Abs(got-tt.far) > 1e-12 {
			t.Errorf("FAR(%v) = %v, want %v", tt.th, got, tt.far)
		}
		if got := s.FRR(tt.th); math.Abs(got-tt.frr) > 1e-12 {
			t.Errorf("FRR(%v) = %v, want %v", tt.th, got, tt.frr)
		}
	}
}

func TestFARFRREmptySides(t *testing.T) {
	s := &ScoreSet{}
	if s.FAR(0) != 0 || s.FRR(0) != 0 {
		t.Error("empty set rates should be 0")
	}
	if s.DETCurve() != nil {
		t.Error("empty DET should be nil")
	}
	eer, _ := s.EER()
	if eer != 0 {
		t.Errorf("empty EER = %v", eer)
	}
}

func TestAdd(t *testing.T) {
	var s ScoreSet
	s.Add(1, true)
	s.Add(-1, false)
	if len(s.Genuine) != 1 || len(s.Impostor) != 1 {
		t.Error("Add misrouted")
	}
}

func TestEERPerfectSeparation(t *testing.T) {
	s := &ScoreSet{
		Genuine:  []float64{5, 6, 7},
		Impostor: []float64{1, 2, 3},
	}
	eer, th := s.EER()
	if eer != 0 {
		t.Errorf("EER = %v, want 0", eer)
	}
	if s.FAR(th) != 0 || s.FRR(th) != 0 {
		t.Errorf("threshold %v gives FAR=%v FRR=%v", th, s.FAR(th), s.FRR(th))
	}
}

func TestEEROverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := &ScoreSet{}
	for i := 0; i < 2000; i++ {
		s.Add(1+rng.NormFloat64(), true)
		s.Add(-1+rng.NormFloat64(), false)
	}
	eer, _ := s.EER()
	// Two unit Gaussians 2 apart: EER = Φ(-1) ≈ 15.9%.
	if math.Abs(eer-0.159) > 0.025 {
		t.Errorf("EER = %v, want ≈0.159", eer)
	}
}

func TestEERFullOverlapNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := &ScoreSet{}
	for i := 0; i < 3000; i++ {
		s.Add(rng.NormFloat64(), true)
		s.Add(rng.NormFloat64(), false)
	}
	eer, _ := s.EER()
	if math.Abs(eer-0.5) > 0.03 {
		t.Errorf("EER = %v, want ≈0.5", eer)
	}
}

func TestDETCurveMonotone(t *testing.T) {
	f := func(g, i []float64) bool {
		if len(g) == 0 || len(i) == 0 || len(g) > 200 || len(i) > 200 {
			return true
		}
		for _, v := range append(append([]float64{}, g...), i...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := &ScoreSet{Genuine: g, Impostor: i}
		pts := s.DETCurve()
		for k := 1; k < len(pts); k++ {
			if pts[k].Threshold <= pts[k-1].Threshold {
				return false
			}
			if pts[k].FAR > pts[k-1].FAR+1e-12 { // FAR non-increasing
				return false
			}
			if pts[k].FRR < pts[k-1].FRR-1e-12 { // FRR non-decreasing
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(x)
	if err != nil || m != 5 {
		t.Errorf("mean = %v, err %v", m, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) err = %v", err)
	}
}

func TestEERThresholdProperty(t *testing.T) {
	// At the EER threshold, |FAR-FRR| should be the global minimum over
	// DET points.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &ScoreSet{}
		for i := 0; i < 100; i++ {
			s.Add(0.8+rng.NormFloat64(), true)
			s.Add(-0.8+rng.NormFloat64(), false)
		}
		_, th := s.EER()
		gap := math.Abs(s.FAR(th) - s.FRR(th))
		for _, p := range s.DETCurve() {
			if math.Abs(p.FAR-p.FRR) < gap-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
