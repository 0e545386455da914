//go:build !amd64

package gmm

// exactKernel is false off amd64: exact scoring runs componentLogLik
// frame by frame.
const exactKernel = false

// mahaSweep has no kernel off amd64 and is never called there.
func mahaSweep(xt []float64, means, vars [][]float64, out []float64) {}
