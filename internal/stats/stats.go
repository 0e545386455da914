// Package stats provides the evaluation machinery of the paper: false
// acceptance rate (FAR), false rejection rate (FRR), equal error rate
// (EER) and its threshold, and DET curves — plus the mean used across
// the experiment harness.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ScoreSet collects verification scores for genuine trials and impostor
// (attack) trials. Higher score must mean "more likely genuine".
type ScoreSet struct {
	Genuine  []float64
	Impostor []float64
}

// Add appends a score.
func (s *ScoreSet) Add(score float64, genuine bool) {
	if genuine {
		s.Genuine = append(s.Genuine, score)
	} else {
		s.Impostor = append(s.Impostor, score)
	}
}

// FAR returns the false acceptance rate at the given threshold: the
// fraction of impostor scores ≥ threshold.
func (s *ScoreSet) FAR(threshold float64) float64 {
	if len(s.Impostor) == 0 {
		return 0
	}
	var n int
	for _, v := range s.Impostor {
		if v >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.Impostor))
}

// FRR returns the false rejection rate at the given threshold: the
// fraction of genuine scores < threshold.
func (s *ScoreSet) FRR(threshold float64) float64 {
	if len(s.Genuine) == 0 {
		return 0
	}
	var n int
	for _, v := range s.Genuine {
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.Genuine))
}

// DETPoint is one operating point of the detection error trade-off curve.
type DETPoint struct {
	Threshold float64
	FAR, FRR  float64
}

// DETCurve sweeps the threshold over every distinct score and returns the
// operating points in increasing threshold order.
func (s *ScoreSet) DETCurve() []DETPoint {
	all := make([]float64, 0, len(s.Genuine)+len(s.Impostor))
	all = append(all, s.Genuine...)
	all = append(all, s.Impostor...)
	if len(all) == 0 {
		return nil
	}
	sort.Float64s(all)
	// Dedup.
	uniq := all[:1]
	for _, v := range all[1:] {
		//lint:allow floatcmp threshold sweep needs exact dedup of sorted scores; merging near ties would drop operating points
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	pts := make([]DETPoint, 0, len(uniq)+1)
	for _, th := range uniq {
		pts = append(pts, DETPoint{Threshold: th, FAR: s.FAR(th), FRR: s.FRR(th)})
	}
	// One point past the top so FAR can reach 0. Nextafter keeps the
	// threshold strictly increasing even at float64 extremes.
	last := math.Nextafter(uniq[len(uniq)-1], math.Inf(1))
	pts = append(pts, DETPoint{Threshold: last, FAR: s.FAR(last), FRR: s.FRR(last)})
	return pts
}

// EER returns the equal error rate and the threshold achieving it. It
// scans the DET curve for the point where FAR and FRR cross, interpolating
// between the bracketing operating points.
func (s *ScoreSet) EER() (eer, threshold float64) {
	pts := s.DETCurve()
	if len(pts) == 0 {
		return 0, 0
	}
	// FAR decreases with threshold, FRR increases. Find the crossing.
	best := pts[0]
	bestGap := math.Abs(pts[0].FAR - pts[0].FRR)
	for _, p := range pts[1:] {
		if gap := math.Abs(p.FAR - p.FRR); gap < bestGap {
			bestGap = gap
			best = p
		}
	}
	return (best.FAR + best.FRR) / 2, best.Threshold
}

// ErrEmpty is returned by descriptive statistics on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean.
func Mean(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x)), nil
}
