package main

// Order statistics. A reported percentile must have at least ten samples
// beyond it, so p99 needs 1000 samples and p95 needs 200; a run that
// cannot support a percentile it reports fails instead of printing it.

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile.
const minBeyond = 10

// percentile returns the permille-th per-mille of sorted (nearest rank),
// or an error when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, permille int) (float64, error) {
	n := len(sorted)
	if permille <= 0 || permille >= 1000 {
		return 0, fmt.Errorf("percentile %d‰ out of range", permille)
	}
	tail := 1000 - permille
	if need := (minBeyond*1000 + tail - 1) / tail; n < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", float64(permille)/10, need, n)
	}
	rank := (permille*n + 999) / 1000
	return sorted[rank-1], nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count), NaN when empty. Unlike percentile it needs no minimum
// count: it summarizes set-up times and per-request layer times, not
// reported latency percentiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
