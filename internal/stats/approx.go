package stats

import "math"

// Epsilon is the default absolute tolerance for floating-point equality
// across the pipeline. Sensor values, scores and thresholds live many
// orders of magnitude above it, and accumulated rounding error from the
// DSP chains stays far below it.
const Epsilon = 1e-9

// zeroTolerance is the cutoff below which a float is treated as unset or
// exactly zero. It sits well under any meaningful configuration value
// (the smallest physical quantities in the system are ~1e-6, µT-scale)
// and well above accumulated rounding noise.
const zeroTolerance = 1e-12

// ApproxEqual reports whether a and b are equal within the absolute
// tolerance eps. NaN compares unequal to everything, matching ==.
func ApproxEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// IsZero reports whether x is zero for configuration and guard purposes:
// exactly zero, or so small (|x| < 1e-12) that it cannot be a meaningful
// value. Use it for "was this field left unset" defaults and
// divide-by-zero guards instead of a raw == 0.
func IsZero(x float64) bool {
	return math.Abs(x) < zeroTolerance
}
