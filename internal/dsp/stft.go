package dsp

import (
	"errors"
	"fmt"
	"math"

	"voiceguard/internal/parallel"
	"voiceguard/internal/telemetry"
)

// Spectrogram is the output of a short-time Fourier transform: a sequence
// of magnitude spectra over time, as used by the paper's Fig. 6 (the
// received 19 kHz ranging tone while the phone moves).
type Spectrogram struct {
	// Frames holds one magnitude spectrum per analysis frame; each row has
	// FFTSize/2+1 bins (real input, non-negative frequencies).
	Frames [][]float64
	// SampleRate is the sample rate of the analyzed signal in Hz.
	SampleRate float64
	// FFTSize is the transform length.
	FFTSize int
	// HopSize is the frame advance in samples.
	HopSize int
}

// STFTConfig configures STFT analysis.
type STFTConfig struct {
	FrameSize  int     // analysis frame length in samples
	HopSize    int     // frame advance in samples
	FFTSize    int     // transform length; 0 means NextPow2(FrameSize)
	Window     Window  // taper; 0 value defaults to Hann
	SampleRate float64 // sample rate of the input signal in Hz
}

func (c *STFTConfig) setDefaults() error {
	if c.FrameSize <= 0 {
		return fmt.Errorf("dsp: FrameSize %d must be positive", c.FrameSize)
	}
	if c.HopSize <= 0 {
		return fmt.Errorf("dsp: HopSize %d must be positive", c.HopSize)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("dsp: SampleRate %v must be positive", c.SampleRate)
	}
	if c.FFTSize == 0 {
		c.FFTSize = NextPow2(c.FrameSize)
	}
	if c.FFTSize < c.FrameSize {
		return fmt.Errorf("dsp: FFTSize %d smaller than FrameSize %d", c.FFTSize, c.FrameSize)
	}
	if c.Window == 0 {
		c.Window = WindowHann
	}
	return nil
}

// ErrShortSignal is returned when the input is shorter than one frame.
var ErrShortSignal = errors.New("dsp: signal shorter than one analysis frame")

// STFT computes the magnitude spectrogram of x.
//
// The implementation is the planned hot path: one cached FFTPlan per
// FFTSize (precomputed twiddles and bit-reversal), cached window
// coefficients, a single backing allocation for all frame rows, pooled
// per-worker scratch buffers, and frames fanned out across cores via
// internal/parallel. Frame rows are written by index, so the output is
// bit-identical whether the fan-out runs serial or parallel.
func STFT(x []float64, cfg STFTConfig) (*Spectrogram, error) {
	return STFTSpan(nil, x, cfg)
}

// STFTSpan is STFT recording its plan execution under span: the span (nil
// disables tracing at zero cost) gains the transform geometry as
// attributes and one "stft-block" child per parallel worker block. The
// caller owns span's End; output is bit-identical to STFT.
func STFTSpan(span *telemetry.Span, x []float64, cfg STFTConfig) (*Spectrogram, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if len(x) < cfg.FrameSize {
		return nil, ErrShortSignal
	}
	nFrames := 1 + (len(x)-cfg.FrameSize)/cfg.HopSize
	win, err := cfg.Window.cachedCoefficients(cfg.FrameSize)
	if err != nil {
		return nil, err
	}
	nBins := cfg.FFTSize/2 + 1

	sp := &Spectrogram{
		Frames:     make([][]float64, nFrames),
		SampleRate: cfg.SampleRate,
		FFTSize:    cfg.FFTSize,
		HopSize:    cfg.HopSize,
	}
	backing := make([]float64, nFrames*nBins)
	for f := 0; f < nFrames; f++ {
		sp.Frames[f] = backing[f*nBins : (f+1)*nBins : (f+1)*nBins]
	}
	plan := PlanFFT(cfg.FFTSize)
	packed := plan.canPackReal()
	span.SetInt("frames", int64(nFrames))
	span.SetInt("fft_size", int64(cfg.FFTSize))
	span.SetInt("hop_size", int64(cfg.HopSize))
	span.SetBool("packed_real", packed)
	if packed {
		stftPacked(span, sp, x, cfg, plan, win)
	} else {
		stftComplex(span, sp, x, cfg, plan, win)
	}
	return sp, nil
}

// stftPacked runs the even power-of-two fast path: each frame is packed
// into a half-size complex buffer at its bit-reversed slots, run through
// the half-size plan's butterflies, and unpacked straight into magnitude
// bins.
func stftPacked(span *telemetry.Span, sp *Spectrogram, x []float64, cfg STFTConfig, plan *FFTPlan, win []float64) {
	perm := plan.half.perm
	parallel.SpanRange(span, "stft-block", len(sp.Frames), func(lo, hi int) {
		zptr := plan.half.acquire()
		z := *zptr
		for f := lo; f < hi; f++ {
			off := f * cfg.HopSize
			for i, slot := range perm {
				var re, im float64
				if j := 2 * i; j < cfg.FrameSize {
					re = x[off+j] * win[j]
				}
				if j := 2*i + 1; j < cfg.FrameSize {
					im = x[off+j] * win[j]
				}
				z[slot] = complex(re, im)
			}
			plan.half.butterflies(z, false)
			plan.realMagnitudes(z, sp.Frames[f])
		}
		plan.half.release(zptr)
	})
}

// stftComplex is the generic path for odd or non-power-of-two FFT sizes:
// a full complex transform per frame, still planned and pooled.
func stftComplex(span *telemetry.Span, sp *Spectrogram, x []float64, cfg STFTConfig, plan *FFTPlan, win []float64) {
	nBins := cfg.FFTSize/2 + 1
	parallel.SpanRange(span, "stft-block", len(sp.Frames), func(lo, hi int) {
		bptr := plan.acquire()
		buf := *bptr
		for f := lo; f < hi; f++ {
			off := f * cfg.HopSize
			for i := 0; i < cfg.FrameSize; i++ {
				buf[i] = complex(x[off+i]*win[i], 0)
			}
			for i := cfg.FrameSize; i < cfg.FFTSize; i++ {
				buf[i] = 0
			}
			plan.transform(buf)
			row := sp.Frames[f]
			for k := 0; k < nBins; k++ {
				re, im := real(buf[k]), imag(buf[k])
				row[k] = math.Sqrt(re*re + im*im)
			}
		}
		plan.release(bptr)
	})
}

// NumFrames returns the number of analysis frames.
func (s *Spectrogram) NumFrames() int { return len(s.Frames) }

// FrameTime returns the start time in seconds of frame f.
func (s *Spectrogram) FrameTime(f int) float64 {
	return float64(f*s.HopSize) / s.SampleRate
}

// BinFreq returns the center frequency in Hz of bin k.
func (s *Spectrogram) BinFreq(k int) float64 {
	return BinFrequency(k, s.FFTSize, s.SampleRate)
}

// PeakBin returns, for frame f, the bin with the largest magnitude within
// the frequency band [lo, hi] Hz, along with that magnitude. It returns
// (-1, 0) if the band is empty.
func (s *Spectrogram) PeakBin(f int, lo, hi float64) (bin int, mag float64) {
	if f < 0 || f >= len(s.Frames) {
		return -1, 0
	}
	kLo := FrequencyBin(lo, s.FFTSize, s.SampleRate)
	kHi := FrequencyBin(hi, s.FFTSize, s.SampleRate)
	if kHi >= len(s.Frames[f]) {
		kHi = len(s.Frames[f]) - 1
	}
	bin = -1
	for k := kLo; k <= kHi; k++ {
		if m := s.Frames[f][k]; m > mag {
			mag = m
			bin = k
		}
	}
	return bin, mag
}

// BandEnergy returns the total spectral energy of frame f within [lo, hi] Hz.
func (s *Spectrogram) BandEnergy(f int, lo, hi float64) float64 {
	if f < 0 || f >= len(s.Frames) {
		return 0
	}
	kLo := FrequencyBin(lo, s.FFTSize, s.SampleRate)
	kHi := FrequencyBin(hi, s.FFTSize, s.SampleRate)
	if kHi >= len(s.Frames[f]) {
		kHi = len(s.Frames[f]) - 1
	}
	var e float64
	for k := kLo; k <= kHi; k++ {
		e += s.Frames[f][k] * s.Frames[f][k]
	}
	return e
}
