// Package audio provides the time-domain signal representation shared by
// the speech synthesizer, the ranging pipeline and the feature extractors,
// plus the supporting operations a real capture stack would perform:
// framing, pre-emphasis, intensity measurement and WAV serialization.
package audio

import (
	"math"

	"voiceguard/internal/stats"
)

// Signal is a mono PCM signal with an associated sample rate.
type Signal struct {
	// Samples holds the waveform in the nominal range [-1, 1].
	Samples []float64
	// Rate is the sample rate in Hz.
	Rate float64
}

// NewSignal allocates a silent signal of the given duration.
func NewSignal(duration, rate float64) *Signal {
	n := int(math.Round(duration * rate))
	if n < 0 {
		n = 0
	}
	return &Signal{Samples: make([]float64, n), Rate: rate}
}

// Duration returns the signal length in seconds.
func (s *Signal) Duration() float64 {
	if stats.IsZero(s.Rate) {
		return 0
	}
	return float64(len(s.Samples)) / s.Rate
}

// Len returns the number of samples.
func (s *Signal) Len() int { return len(s.Samples) }

// Clone returns a deep copy of the signal.
func (s *Signal) Clone() *Signal {
	out := &Signal{Samples: make([]float64, len(s.Samples)), Rate: s.Rate}
	copy(out.Samples, s.Samples)
	return out
}

// Scale multiplies every sample by g in place and returns s.
func (s *Signal) Scale(g float64) *Signal {
	for i := range s.Samples {
		s.Samples[i] *= g
	}
	return s
}

// RMS returns the root-mean-square amplitude of the signal.
func (s *Signal) RMS() float64 {
	return RMS(s.Samples)
}

// Peak returns the maximum absolute sample value.
func (s *Signal) Peak() float64 {
	var p float64
	for _, v := range s.Samples {
		if a := math.Abs(v); a > p {
			p = a
		}
	}
	return p
}

// Normalize scales the signal so its peak is the given level (commonly
// slightly below 1). Silent signals are left unchanged.
func (s *Signal) Normalize(level float64) *Signal {
	p := s.Peak()
	if stats.IsZero(p) {
		return s
	}
	return s.Scale(level / p)
}

// RMS returns the root-mean-square of a sample block.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var e float64
	for _, v := range x {
		e += v * v
	}
	return math.Sqrt(e / float64(len(x)))
}

// PreEmphasis applies the standard first-order high-pass y[n] = x[n] -
// alpha*x[n-1] (alpha typically 0.97) and returns a new slice. It whitens
// the spectral tilt of voiced speech before MFCC analysis.
func PreEmphasis(x []float64, alpha float64) []float64 {
	out := make([]float64, len(x))
	var prev float64
	for i, v := range x {
		out[i] = v - alpha*prev
		prev = v
	}
	return out
}

// Frame splits x into frames of the given size with the given hop,
// discarding the trailing partial frame. The returned slices alias x.
func Frame(x []float64, size, hop int) [][]float64 {
	if size <= 0 || hop <= 0 || len(x) < size {
		return nil
	}
	n := 1 + (len(x)-size)/hop
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = x[i*hop : i*hop+size]
	}
	return frames
}
