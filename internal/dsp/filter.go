package dsp

import "math"

// Biquad is a second-order IIR filter section in direct form II transposed.
// It is the building block for the vocal-tract formant resonators in the
// speech synthesizer and for the demodulation low-pass filters in the
// acoustic ranging pipeline.
type Biquad struct {
	B0, B1, B2 float64 // feedforward coefficients
	A1, A2     float64 // feedback coefficients (a0 normalized to 1)
	z1, z2     float64 // state
}

// Process filters a single sample.
func (f *Biquad) Process(x float64) float64 {
	y := f.B0*x + f.z1
	f.z1 = f.B1*x - f.A1*y + f.z2
	f.z2 = f.B2*x - f.A2*y
	return y
}

// ProcessBlock filters x in place.
func (f *Biquad) ProcessBlock(x []float64) {
	for i, v := range x {
		x[i] = f.Process(v)
	}
}

// NewResonator returns a two-pole resonator centered at freq Hz with the
// given -3 dB bandwidth, for a signal sampled at sampleRate. The gain is
// normalized to unity at the center frequency. This is the classic Klatt
// formant resonator.
func NewResonator(freq, bandwidth, sampleRate float64) *Biquad {
	r := math.Exp(-math.Pi * bandwidth / sampleRate)
	theta := 2 * math.Pi * freq / sampleRate
	a1 := -2 * r * math.Cos(theta)
	a2 := r * r
	b0 := 1 + a1 + a2 // unity gain at DC for the all-pole section scaled below
	// Normalize gain at the resonance frequency instead of DC: evaluate
	// |H(e^{jθ})| of the all-pole filter and scale.
	re := 1 + a1*math.Cos(theta) + a2*math.Cos(2*theta)
	im := a1*math.Sin(theta) + a2*math.Sin(2*theta)
	g := math.Hypot(re, im)
	if g > 0 {
		b0 = g
	}
	return &Biquad{B0: b0, A1: a1, A2: a2}
}

// NewLowPassBiquad returns a Butterworth-style low-pass biquad with cutoff
// freq Hz (Q = 1/√2) for a signal sampled at sampleRate.
func NewLowPassBiquad(freq, sampleRate float64) *Biquad {
	return newRBJ(freq, sampleRate, math.Sqrt2/2, false)
}

// NewHighPassBiquad returns a Butterworth-style high-pass biquad with
// cutoff freq Hz (Q = 1/√2) for a signal sampled at sampleRate.
func NewHighPassBiquad(freq, sampleRate float64) *Biquad {
	return newRBJ(freq, sampleRate, math.Sqrt2/2, true)
}

// newRBJ constructs an RBJ audio-EQ-cookbook low/high-pass biquad.
func newRBJ(freq, sampleRate, q float64, highpass bool) *Biquad {
	w0 := 2 * math.Pi * freq / sampleRate
	cw, sw := math.Cos(w0), math.Sin(w0)
	alpha := sw / (2 * q)
	a0 := 1 + alpha
	var b0, b1, b2 float64
	if highpass {
		b0 = (1 + cw) / 2
		b1 = -(1 + cw)
		b2 = (1 + cw) / 2
	} else {
		b0 = (1 - cw) / 2
		b1 = 1 - cw
		b2 = (1 - cw) / 2
	}
	return &Biquad{
		B0: b0 / a0,
		B1: b1 / a0,
		B2: b2 / a0,
		A1: -2 * cw / a0,
		A2: (1 - alpha) / a0,
	}
}

// Unwrap removes 2π discontinuities from a phase sequence in place and
// returns it. Successive samples are assumed to differ by less than π in
// the underlying continuous phase.
func Unwrap(phase []float64) []float64 {
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		for d > math.Pi {
			phase[i] -= 2 * math.Pi
			d = phase[i] - phase[i-1]
		}
		for d < -math.Pi {
			phase[i] += 2 * math.Pi
			d = phase[i] - phase[i-1]
		}
	}
	return phase
}
