//go:build amd64

package gmm

import "voiceguard/internal/cpuid"

// quadSweep computes every component's Mahalanobis quadratic form for
// one padded frame: out[c] = Σ_d (xf[d]−means[c·stride+d])²·invVars[…].
// Implemented in assembly (sweep_amd64.s) with the exact summation
// order of quadSweepGeneric, so results are bit-identical to the
// portable fallback on every path: plain SSE (guaranteed on amd64) and
// an AVX2 variant taken when the CPU and OS support it and the row
// stride is a whole number of 8-dim double blocks. The AVX2 kernel uses
// no FMA — fusing would change rounding and break the bit contract.
func quadSweep(means, invVars, xf, out []float32, k, stride int) {
	if cpuid.AVX2 && stride%8 == 0 {
		quadSweepAVX2(means, invVars, xf, out, k, stride)
		return
	}
	quadSweepSSE(means, invVars, xf, out, k, stride)
}

//go:noescape
func quadSweepSSE(means, invVars, xf, out []float32, k, stride int)

//go:noescape
func quadSweepAVX2(means, invVars, xf, out []float32, k, stride int)

// topCSelect extracts the len(vals) largest scores in descending order
// (ties by lowest index) into vals, widened to float64, and their
// indices into idx, consuming the score buffer. The AVX2 kernel and the
// portable topCExtract implement the identical extraction procedure, so
// the choice never changes a single bit of the shortlist.
func topCSelect(scores []float32, vals []float64, idx []int32) {
	if cpuid.AVX2 && len(scores)%8 == 0 {
		topCSelectAVX2(scores, vals, idx)
		return
	}
	topCExtract(scores, vals, idx)
}

// scoreSelect turns raw quadratic forms into per-component log-densities
// (consts[i] − q[i]/2, computed in float32 so every score is an exact
// float32 value) and extracts the len(vals) best into vals/idx. At the
// serving mixture size (k = 32) an AVX2 machine takes a fused kernel
// that keeps the whole score vector in registers from conversion through
// extraction; every other shape converts in place and dispatches through
// topCSelect. All paths produce bit-identical output.
func scoreSelect(q, consts []float32, vals []float64, idx []int32) {
	if cpuid.AVX2 && len(q) == 32 {
		topCScore32AVX2(q, consts, vals, idx)
		return
	}
	consts = consts[:len(q)]
	for i := range q {
		q[i] = consts[i] - 0.5*q[i]
	}
	topCSelect(q, vals, idx)
}

//go:noescape
func topCSelectAVX2(scores []float32, vals []float64, idx []int32)

//go:noescape
func topCScore32AVX2(q, consts []float32, vals []float64, idx []int32)
