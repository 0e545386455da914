// Package fusion estimates the phone's in-plane heading and turn rate
// from the gyroscope, magnetometer and accelerometer, following the
// paper's approach of jointly using all three because magnetometer-only
// headings are unreliable indoors (§IV-B1, citing Zee and walking-
// direction work). A complementary filter blends the gyro-integrated
// heading (accurate short-term, drifts long-term) with the magnetometer
// heading (noisy short-term, stable long-term).
package fusion

import (
	"errors"
	"math"

	"voiceguard/internal/sensors"
	"voiceguard/internal/stats"
)

// HeadingEstimate is the fused heading track.
type HeadingEstimate struct {
	// T holds sample times in seconds.
	// unit: s
	T []float64
	// Theta holds the unwrapped heading in radians at each time.
	// unit: rad
	Theta []float64
	// Omega holds the turn rate in rad/s at each time.
	// unit: rad/s
	Omega []float64
}

// ErrMismatchedTraces is returned when input traces are empty or
// incompatible.
var ErrMismatchedTraces = errors.New("fusion: empty or mismatched sensor traces")

// Config tunes the complementary filter.
type Config struct {
	// GyroWeight is the short-term trust in the integrated gyro heading,
	// in [0, 1); the magnetometer correction gets 1-GyroWeight per step.
	// Default 0.98.
	// unit: dimensionless
	GyroWeight float64
	// MagSign selects the magnetometer heading convention. +1 (default)
	// expects traces where atan2(Y, X) tracks the heading directly. -1
	// is the physical phone-frame convention: a fixed world field seen
	// from a phone at heading θ appears at angle (β - θ), so the heading
	// is recovered as -atan2(Y, X) up to the constant field angle β.
	// All downstream geometry (turn, bearings, circle fits) is invariant
	// to that constant offset.
	// unit: dimensionless
	MagSign float64
}

func (c *Config) setDefaults() {
	if stats.IsZero(c.GyroWeight) {
		c.GyroWeight = 0.98
	}
	if stats.IsZero(c.MagSign) {
		c.MagSign = 1
	}
}

// EstimateHeading fuses a gyroscope trace (rad/s, Z axis is the rotation
// axis of the 2D motion plane) with a magnetometer trace (µT). The traces
// may have different rates; magnetometer samples are consumed as they
// become current. The initial heading is taken from the first
// magnetometer sample.
func EstimateHeading(gyro, mag *sensors.Trace, cfg Config) (*HeadingEstimate, error) {
	cfg.setDefaults()
	if gyro == nil || mag == nil || gyro.Len() < 2 || mag.Len() < 1 {
		return nil, ErrMismatchedTraces
	}
	est := &HeadingEstimate{
		T:     make([]float64, gyro.Len()),
		Theta: make([]float64, gyro.Len()),
		Omega: make([]float64, gyro.Len()),
	}
	magHeading := func(i int) float64 {
		v := mag.Samples[i].V
		return cfg.MagSign * math.Atan2(v.Y, v.X)
	}
	theta := magHeading(0)
	magIdx := 0
	// Track unwrap offset for the magnetometer reference so the blend
	// compares like with like.
	magRef := theta
	for i := range gyro.Samples {
		s := gyro.Samples[i]
		if i > 0 {
			dt := s.T - gyro.Samples[i-1].T
			theta += s.V.Z * dt
		}
		// Advance the magnetometer cursor to the latest sample ≤ t.
		for magIdx+1 < mag.Len() && mag.Samples[magIdx+1].T <= s.T {
			magIdx++
			raw := magHeading(magIdx)
			// Unwrap the magnetometer heading toward the previous ref.
			for raw-magRef > math.Pi {
				raw -= 2 * math.Pi
			}
			for raw-magRef < -math.Pi {
				raw += 2 * math.Pi
			}
			magRef = raw
			theta = cfg.GyroWeight*theta + (1-cfg.GyroWeight)*magRef
		}
		est.T[i] = s.T
		est.Theta[i] = theta
		est.Omega[i] = s.V.Z
	}
	return est, nil
}

// ThetaAt linearly interpolates the heading at time t, clamping to the
// ends.
// unit: t s, return rad
func (h *HeadingEstimate) ThetaAt(t float64) float64 {
	return interp(h.T, h.Theta, t)
}

// OmegaAt linearly interpolates the turn rate at time t.
// unit: t s, return rad/s
func (h *HeadingEstimate) OmegaAt(t float64) float64 {
	return interp(h.T, h.Omega, t)
}

func interp(ts, vs []float64, t float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	if t <= ts[0] {
		return vs[0]
	}
	if t >= ts[len(ts)-1] {
		return vs[len(vs)-1]
	}
	lo, hi := 0, len(ts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (t - ts[lo]) / (ts[hi] - ts[lo])
	return vs[lo] + f*(vs[hi]-vs[lo])
}

// RemoveGravity subtracts the gravity vector from an accelerometer trace
// given the known orientation of the motion plane (the paper constrains
// the use case to a pre-defined 2D plane, so gravity is constant in the
// plane frame). gravity is expressed in the same frame as the trace.
func RemoveGravity(accel *sensors.Trace, gravity func(t float64) (x, y, z float64)) *sensors.Trace {
	out := &sensors.Trace{Name: accel.Name + "-linear", Samples: make([]sensors.Sample, len(accel.Samples))}
	for i, s := range accel.Samples {
		gx, gy, gz := gravity(s.T)
		v := s.V
		v.X -= gx
		v.Y -= gy
		v.Z -= gz
		out.Samples[i] = sensors.Sample{T: s.T, V: v}
	}
	return out
}
