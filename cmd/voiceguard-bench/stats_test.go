package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		permille, refusedAt, acceptedAt int
	}{
		{990, 999, 1000},
		{950, 199, 200},
		{500, 19, 20},
	} {
		if _, err := percentile(ramp(tc.refusedAt), tc.permille); err == nil {
			t.Errorf("p%d‰ over %d samples: want refusal", tc.permille, tc.refusedAt)
		}
		sorted := ramp(tc.acceptedAt)
		v, err := percentile(sorted, tc.permille)
		if err != nil {
			t.Fatalf("p%d‰ over %d samples: %v", tc.permille, tc.acceptedAt, err)
		}
		beyond := 0
		for _, x := range sorted {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("p%d‰ over %d samples = %v leaves %d beyond, want ≥ %d", tc.permille, tc.acceptedAt, v, beyond, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v, err := percentile(ramp(1000), 990)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	v, err = percentile(ramp(1001), 990)
	if err != nil || v != 991 {
		t.Fatalf("p99 of 1..1001 = %v, %v; want 991", v, err)
	}
	if _, err := percentile(ramp(5000), 1000); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median of none = %v", m)
	}
}
