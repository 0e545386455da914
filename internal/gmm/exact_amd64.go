package gmm

import "voiceguard/internal/cpuid"

// exactKernel selects mahaSweep for the exact scoring path
// (GMM.componentRows). It needs AVX2.
var exactKernel = cpuid.AVX2

// mahaSweep writes out[c·mahaLanes+j] = Σ_d (x_j[d]−means[c][d])²/vars[c][d]
// for every component c and the mahaLanes frames x_j interleaved in xt
// (xt[d·mahaLanes+j] = x_j[d], d < len(xt)/mahaLanes). Each ymm lane is
// one frame and sums its terms in componentLogLik's order, with the same
// subtract, multiply, divide and add (VDIVPD, no FMA), so every sum has
// the bits of the scalar loop. Rows must hold at least len(xt)/mahaLanes
// values, vars at least len(means) rows, and out mahaLanes·len(means)
// values.
//
//go:noescape
func mahaSweep(xt []float64, means, vars [][]float64, out []float64)
