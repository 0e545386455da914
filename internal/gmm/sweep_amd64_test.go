//go:build amd64

package gmm

import (
	"math/rand"
	"testing"

	"voiceguard/internal/cpuid"
)

// TestQuadSweepVariantsMatch pins both assembly kernels against the
// generic mirror directly — on an AVX2 machine the dispatcher would
// otherwise leave the SSE fallback untested, and vice versa.
func TestQuadSweepVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ k, stride int }{
		{32, 16}, {13, 16}, {6, 16}, {7, 8}, {3, 24}, {5, 4},
	} {
		means := make([]float32, tc.k*tc.stride)
		invVars := make([]float32, tc.k*tc.stride)
		xf := make([]float32, tc.stride)
		for i := range means {
			means[i] = float32(rng.NormFloat64())
			invVars[i] = float32(rng.Float64() + 0.1)
		}
		for i := range xf {
			xf[i] = float32(rng.NormFloat64())
		}
		want := make([]float32, tc.k)
		quadSweepGeneric(means, invVars, xf, want, tc.k, tc.stride)
		got := make([]float32, tc.k)
		quadSweepSSE(means, invVars, xf, got, tc.k, tc.stride)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("SSE k=%d stride=%d comp %d: %x vs %x", tc.k, tc.stride, i, got[i], want[i])
			}
		}
		if cpuid.AVX2 && tc.stride%8 == 0 {
			for i := range got {
				got[i] = 0
			}
			quadSweepAVX2(means, invVars, xf, got, tc.k, tc.stride)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("AVX2 k=%d stride=%d comp %d: %x vs %x", tc.k, tc.stride, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopCSelectAVX2MatchesExtract pins the assembly extraction against
// the portable mirror, including duplicate scores (the tie rule) and
// c = k (full extraction).
func TestTopCSelectAVX2MatchesExtract(t *testing.T) {
	if !cpuid.AVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct{ k, c int }{
		{32, 1}, {32, 8}, {32, 32}, {8, 3}, {64, 10},
	} {
		scores := make([]float32, tc.k)
		for i := range scores {
			scores[i] = float32(rng.NormFloat64())
		}
		// Inject duplicates so the lowest-index tie rule is exercised.
		scores[tc.k-1] = scores[0]
		if tc.k > 2 {
			scores[tc.k/2] = scores[1]
		}
		wantVals := make([]float64, tc.c)
		wantIdx := make([]int32, tc.c)
		topCExtract(append([]float32(nil), scores...), wantVals, wantIdx)
		gotVals := make([]float64, tc.c)
		gotIdx := make([]int32, tc.c)
		topCSelectAVX2(scores, gotVals, gotIdx)
		for r := 0; r < tc.c; r++ {
			if gotVals[r] != wantVals[r] || gotIdx[r] != wantIdx[r] {
				t.Errorf("k=%d c=%d round %d: got (%v, %d), want (%v, %d)",
					tc.k, tc.c, r, gotVals[r], gotIdx[r], wantVals[r], wantIdx[r])
			}
		}
	}
}

// TestTopCScore32MatchesScalar pins the fused k=32 score-and-select
// kernel against the scalar conversion + portable extraction, including
// duplicate quadratic forms (tie rule) and full extraction (c = 32).
func TestTopCScore32MatchesScalar(t *testing.T) {
	if !cpuid.AVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(47))
	for _, c := range []int{1, 4, 8, 17, 32} {
		q := make([]float32, 32)
		consts := make([]float32, 32)
		for i := range q {
			q[i] = float32(rng.Float64() * 40)
			consts[i] = float32(rng.NormFloat64())
		}
		// Duplicate scores across blocks to exercise the tie rule.
		q[31], consts[31] = q[0], consts[0]
		q[17], consts[17] = q[2], consts[2]
		ref := append([]float32(nil), q...)
		for i := range ref {
			ref[i] = consts[i] - 0.5*ref[i]
		}
		wantVals := make([]float64, c)
		wantIdx := make([]int32, c)
		topCExtract(ref, wantVals, wantIdx)
		gotVals := make([]float64, c)
		gotIdx := make([]int32, c)
		topCScore32AVX2(append([]float32(nil), q...), consts, gotVals, gotIdx)
		for r := 0; r < c; r++ {
			if gotVals[r] != wantVals[r] || gotIdx[r] != wantIdx[r] {
				t.Errorf("c=%d round %d: got (%v, %d), want (%v, %d)",
					c, r, gotVals[r], gotIdx[r], wantVals[r], wantIdx[r])
			}
		}
	}
}
