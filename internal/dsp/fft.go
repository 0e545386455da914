// Package dsp provides the signal-processing primitives the rest of the
// system is built on: FFT, short-time Fourier transform, window functions,
// biquad IIR filtering and phase unwrapping. Everything is stdlib-only
// and allocation-conscious; the hot paths (FFT, biquads) avoid
// per-sample allocation entirely.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// The transform implementations live in plan.go: every call below routes
// through the sync.Map-backed plan cache, so twiddle factors and
// bit-reversal permutations are computed once per size per process.

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Power-of-two lengths use an iterative radix-2
// Cooley–Tukey transform; other lengths fall back to Bluestein's
// algorithm. An empty input returns an empty slice.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT returns the inverse discrete Fourier transform of x, normalized by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	fftInPlace(out, true)
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal computes the DFT of a real-valued signal and returns the full
// complex spectrum of the same length.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlace(c, false)
	return c
}

// fftInPlace transforms x in place through the cached plan for len(x).
// inverse selects the conjugate transform (without the 1/N
// normalization).
func fftInPlace(x []complex128, inverse bool) {
	if len(x) <= 1 {
		return
	}
	PlanFFT(len(x)).transform(x, inverse)
}

// Magnitudes returns |X_k| for each bin of a spectrum.
func Magnitudes(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for i, c := range spec {
		out[i] = cmplx.Abs(c)
	}
	return out
}

// PowerSpectrum returns |X_k|² for each bin of a spectrum.
func PowerSpectrum(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for i, c := range spec {
		re, im := real(c), imag(c)
		out[i] = re*re + im*im
	}
	return out
}

// BinFrequency returns the center frequency in Hz of FFT bin k for a
// transform of length n over a signal sampled at sampleRate.
func BinFrequency(k, n int, sampleRate float64) float64 {
	return float64(k) * sampleRate / float64(n)
}

// FrequencyBin returns the FFT bin index closest to freq for a transform of
// length n over a signal sampled at sampleRate.
func FrequencyBin(freq float64, n int, sampleRate float64) int {
	k := int(math.Round(freq * float64(n) / sampleRate))
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// validateLength rejects negative lengths with a descriptive error; used
// by window constructors.
func validateLength(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("dsp: %s window with negative length %d", name, n)
	}
	return nil
}
