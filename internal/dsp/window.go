package dsp

import "math"

// Window identifies a tapering window function.
type Window int

// Supported window functions.
const (
	WindowRect Window = iota + 1
	WindowHann
	WindowHamming
	WindowBlackman
)

// String implements fmt.Stringer.
func (w Window) String() string {
	switch w {
	case WindowRect:
		return "rect"
	case WindowHann:
		return "hann"
	case WindowHamming:
		return "hamming"
	case WindowBlackman:
		return "blackman"
	default:
		return "unknown"
	}
}

func (w Window) at(i, n int) float64 {
	if n == 1 {
		return 1
	}
	x := 2 * math.Pi * float64(i) / float64(n)
	switch w {
	case WindowHann:
		return 0.5 - 0.5*math.Cos(x)
	case WindowHamming:
		return 0.54 - 0.46*math.Cos(x)
	case WindowBlackman:
		return 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
	default: // WindowRect and unknown values behave as rectangular.
		return 1
	}
}

// SharedCoefficients returns the n window coefficients for w. Periodic
// windows (suitable for STFT) are produced: the denominator is n, not
// n-1. A negative n is a configuration error and is returned as such.
// The table is computed once per (window, size) and shared across
// callers, so the returned slice MUST be treated as read-only. Hot paths
// (STFT, the MFCC front-end) use this to avoid rebuilding the window per
// call.
func (w Window) SharedCoefficients(n int) ([]float64, error) {
	return w.cachedCoefficients(n)
}
