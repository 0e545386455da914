// Package features extracts the spectral features the ASV back-end
// consumes: mel-frequency cepstral coefficients with log-energy, delta
// coefficients and cepstral mean/variance normalization — the standard
// front-end of the Spear toolchains the paper builds on.
package features

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
	"voiceguard/internal/parallel"
	"voiceguard/internal/stats"
	"voiceguard/internal/telemetry"
)

// MFCCConfig configures the MFCC front-end. The zero value is not valid;
// use DefaultMFCCConfig.
type MFCCConfig struct {
	// FrameLength is the analysis window in seconds.
	FrameLength float64
	// FrameShift is the hop in seconds.
	FrameShift float64
	// NumFilters is the mel filterbank size.
	NumFilters int
	// NumCoeffs is the number of cepstral coefficients kept (excluding C0;
	// log-energy is appended separately).
	NumCoeffs int
	// LowFreq and HighFreq bound the filterbank in Hz. HighFreq 0 means
	// Nyquist.
	LowFreq, HighFreq float64
	// PreEmphasis is the pre-emphasis coefficient (0 disables).
	PreEmphasis float64
	// Deltas appends first-order delta coefficients.
	Deltas bool
	// CMVN applies per-utterance cepstral mean/variance normalization.
	CMVN bool
}

// DefaultMFCCConfig returns the standard 19-coefficient + energy setup
// used by Spear's GMM/ISV toolchains.
func DefaultMFCCConfig() MFCCConfig {
	return MFCCConfig{
		FrameLength: 0.025,
		FrameShift:  0.010,
		NumFilters:  24,
		NumCoeffs:   19,
		LowFreq:     60,
		HighFreq:    0,
		PreEmphasis: 0.97,
		Deltas:      true,
		CMVN:        true,
	}
}

func (c *MFCCConfig) validate(rate float64) error {
	switch {
	case c.FrameLength <= 0 || c.FrameShift <= 0:
		return fmt.Errorf("features: frame length %v / shift %v must be positive", c.FrameLength, c.FrameShift)
	case c.NumFilters < 2:
		return fmt.Errorf("features: need at least 2 mel filters, have %d", c.NumFilters)
	case c.NumCoeffs < 1 || c.NumCoeffs >= c.NumFilters:
		return fmt.Errorf("features: NumCoeffs %d must be in [1, NumFilters)", c.NumCoeffs)
	case c.LowFreq < 0 || (!stats.IsZero(c.HighFreq) && c.HighFreq <= c.LowFreq):
		return fmt.Errorf("features: bad band [%v, %v]", c.LowFreq, c.HighFreq)
	case c.HighFreq > rate/2:
		return fmt.Errorf("features: HighFreq %v above Nyquist %v", c.HighFreq, rate/2)
	}
	return nil
}

// ErrTooShort is returned when the utterance has fewer than two frames.
var ErrTooShort = errors.New("features: utterance too short for analysis")

// MelScale converts Hz to mel.
func MelScale(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// InvMelScale converts mel to Hz.
func InvMelScale(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// Extract computes the MFCC matrix for the signal: one row per frame.
// Row layout: [c1..cN, logE] plus deltas of the same when cfg.Deltas.
//
// This is the planned hot path: the mel filterbank and DCT basis are
// cached per configuration, the analysis window comes from the dsp
// window cache, the spectrum runs through the cached real-input FFTPlan,
// rows share one backing allocation that the cepstra and their deltas
// are written into directly, and frames fan out across cores via
// internal/parallel. Rows are written by index, so output is
// bit-identical to the serial loop.
func Extract(s *audio.Signal, cfg MFCCConfig) ([][]float64, error) {
	return ExtractSpan(nil, s, cfg)
}

// ExtractSpan is Extract recording its work under span: the span (nil
// disables tracing at zero cost) gains the front-end geometry as
// attributes and one "mfcc-block" child per parallel worker block. The
// caller owns span's End; output is bit-identical to Extract.
func ExtractSpan(span *telemetry.Span, s *audio.Signal, cfg MFCCConfig) ([][]float64, error) {
	if err := cfg.validate(s.Rate); err != nil {
		return nil, err
	}
	frameLen := int(cfg.FrameLength * s.Rate)
	frameShift := int(cfg.FrameShift * s.Rate)
	// Frames are views of the raw samples; pre-emphasis is applied per
	// frame below, as audio.PreEmphasis would, without a copy.
	frames := audio.Frame(s.Samples, frameLen, frameShift)
	if len(frames) < 2 {
		return nil, ErrTooShort
	}
	fftSize := dsp.NextPow2(frameLen)
	high := cfg.HighFreq
	if stats.IsZero(high) {
		high = s.Rate / 2
	}
	bank := cachedFilterbank(cfg.NumFilters, fftSize, s.Rate, cfg.LowFreq, high)
	win, err := analysisWindow(frameLen)
	if err != nil {
		return nil, err
	}
	basis := cachedDCT(cfg.NumCoeffs, cfg.NumFilters)

	// Each frame's base cepstra go straight into the first rowW columns
	// of its output row, and their deltas into the next rowW.
	nc := cfg.NumCoeffs
	rowW := nc + 1
	outW := rowW
	if cfg.Deltas {
		outW = 2 * rowW
	}
	out := sliceRows(make([]float64, len(frames)*outW), outW)
	plan := dsp.PlanFFT(fftSize)
	nBins := fftSize/2 + 1
	span.SetInt("frames", int64(len(frames)))
	span.SetInt("fft_size", int64(fftSize))
	span.SetInt("num_coeffs", int64(nc))
	span.SetInt("num_filters", int64(cfg.NumFilters))
	var errMu sync.Mutex
	var frameErr error
	parallel.SpanRange(span, "mfcc-block", len(frames), func(lo, hi int) {
		// Per-block scratch: amortized across the block's frames, never
		// retained past this callback.
		xbuf := make([]float64, fftSize)
		power := make([]float64, nBins)
		for fi := lo; fi < hi; fi++ {
			frame := frames[fi]
			var energy float64
			if alpha := cfg.PreEmphasis; alpha > 0 {
				var prev float64 // the sample before the frame; 0 before the first
				if start := fi * frameShift; start > 0 {
					prev = s.Samples[start-1]
				}
				for i := 0; i < frameLen; i++ {
					v := frame[i] - alpha*prev
					prev = frame[i]
					xbuf[i] = v * win[i]
					energy += v * v
				}
			} else {
				for i := 0; i < frameLen; i++ {
					xbuf[i] = frame[i] * win[i]
					energy += frame[i] * frame[i]
				}
			}
			if err := plan.RealPower(power, xbuf); err != nil {
				// Plan and buffer sizes are fixed above, so this is
				// unreachable; collected defensively.
				errMu.Lock()
				if frameErr == nil {
					frameErr = err
				}
				errMu.Unlock()
				return
			}
			// DCT-II of the log filterbank energies: coefficient k sums
			// basis(k, m)·log E_m over m = 0, 1, … in its own accumulator
			// ceps[k]. Running the filters in the outer loop keeps the
			// coefficients' addition chains independent of each other.
			ceps := out[fi][:nc:nc] // zero, as make left it
			for m, filt := range bank {
				var acc float64
				for _, tap := range filt {
					acc += power[tap.bin] * tap.weight
				}
				logE := math.Log(acc + 1e-12)
				col := basis[m*nc : (m+1)*nc : (m+1)*nc]
				for k, w := range col {
					ceps[k] += w * logE
				}
			}
			out[fi][nc] = math.Log(energy + 1e-12)
		}
	})
	if frameErr != nil {
		return nil, fmt.Errorf("features: frame spectrum: %w", frameErr)
	}
	if cfg.Deltas {
		writeDeltas(out, rowW, 2)
	}
	if cfg.CMVN {
		ApplyCMVN(out)
	}
	return out, nil
}

// sliceRows carves a backing array into equal-width rows.
func sliceRows(backing []float64, width int) [][]float64 {
	rows := make([][]float64, len(backing)/width)
	for i := range rows {
		rows[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// analysisWindow returns the shared Hamming window table for frameLen.
func analysisWindow(n int) ([]float64, error) {
	win, err := dsp.WindowHamming.SharedCoefficients(n)
	if err != nil {
		return nil, fmt.Errorf("features: analysis window: %w", err)
	}
	return win, nil
}

// bankKey addresses one cached mel filterbank.
type bankKey struct {
	numFilters, fftSize int
	rate, low, high     float64 // unit: Hz
}

// bankCache maps filterbank geometry → the shared [][]filterTap. A
// process uses a handful of front-end configurations, so entries live
// for the life of the process. Stored banks are read-only.
var bankCache sync.Map // bankKey → [][]filterTap

// cachedFilterbank returns the shared triangular filterbank for the
// geometry, building it on first use.
func cachedFilterbank(numFilters, fftSize int, rate, low, high float64) [][]filterTap {
	key := bankKey{numFilters, fftSize, rate, low, high}
	if v, ok := bankCache.Load(key); ok {
		return v.([][]filterTap)
	}
	v, _ := bankCache.LoadOrStore(key, melFilterbank(numFilters, fftSize, rate, low, high))
	return v.([][]filterTap)
}

// dctKey addresses one cached DCT-II basis.
type dctKey struct {
	numCoeffs, numFilters int
}

// dctCache maps basis shape → the shared flat basis (read-only).
var dctCache sync.Map // dctKey → []float64

// cachedDCT returns the shared DCT-II basis for the shape, building it
// on first use.
func cachedDCT(numCoeffs, numFilters int) []float64 {
	key := dctKey{numCoeffs, numFilters}
	if v, ok := dctCache.Load(key); ok {
		return v.([]float64)
	}
	v, _ := dctCache.LoadOrStore(key, dctBasis(numCoeffs, numFilters))
	return v.([]float64)
}

// filterTap is one (bin, weight) entry of a triangular mel filter.
type filterTap struct {
	bin    int
	weight float64
}

// melFilterbank builds numFilters triangular filters spanning [low, high]
// Hz over an fftSize-point spectrum.
func melFilterbank(numFilters, fftSize int, rate, low, high float64) [][]filterTap {
	mLow := MelScale(low)
	mHigh := MelScale(high)
	centers := make([]float64, numFilters+2)
	for i := range centers {
		mel := mLow + (mHigh-mLow)*float64(i)/float64(numFilters+1)
		centers[i] = InvMelScale(mel)
	}
	toBin := func(hz float64) float64 { return hz * float64(fftSize) / rate }
	bank := make([][]filterTap, numFilters)
	for m := 0; m < numFilters; m++ {
		lo, mid, hi := toBin(centers[m]), toBin(centers[m+1]), toBin(centers[m+2])
		var taps []filterTap
		for b := int(math.Ceil(lo)); b <= int(math.Floor(hi)) && b <= fftSize/2; b++ {
			fb := float64(b)
			var w float64
			switch {
			case fb < mid && mid > lo:
				w = (fb - lo) / (mid - lo)
			case fb >= mid && hi > mid:
				w = (hi - fb) / (hi - mid)
			}
			if w > 0 {
				taps = append(taps, filterTap{bin: b, weight: w})
			}
		}
		bank[m] = taps
	}
	return bank
}

// dctBasis returns the DCT-II basis for coefficients 1..numCoeffs (the
// DC term, 0, is skipped as usual for MFCCs), transposed and flat:
// entry m·numCoeffs + k weights filter m in coefficient k+1.
func dctBasis(numCoeffs, numFilters int) []float64 {
	b := make([]float64, numFilters*numCoeffs)
	norm := math.Sqrt(2 / float64(numFilters))
	for k := 0; k < numCoeffs; k++ {
		for n := 0; n < numFilters; n++ {
			b[n*numCoeffs+k] = norm * math.Cos(math.Pi*float64(k+1)*(float64(n)+0.5)/float64(numFilters))
		}
	}
	return b
}

// writeDeltas writes into columns [dim, 2·dim) of every row the
// first-order regression deltas, window half-width width, of columns
// [0, dim). A row reads only its neighbours' first dim columns and
// writes only its own last dim, so rows run in parallel.
func writeDeltas(rows [][]float64, dim, width int) {
	n := len(rows)
	var denom float64
	for w := 1; w <= width; w++ {
		denom += 2 * float64(w*w)
	}
	parallel.For(n, func(i int) {
		delta := rows[i][dim : 2*dim]
		for d := range delta {
			var num float64
			for w := 1; w <= width; w++ {
				lo := i - w
				if lo < 0 {
					lo = 0
				}
				hi := i + w
				if hi >= n {
					hi = n - 1
				}
				num += float64(w) * (rows[hi][d] - rows[lo][d])
			}
			delta[d] = num / denom
		}
	})
}

// ApplyCMVN normalizes each feature dimension to zero mean and unit
// variance in place.
func ApplyCMVN(feats [][]float64) {
	if len(feats) == 0 {
		return
	}
	dim := len(feats[0])
	mean := make([]float64, dim)
	for _, row := range feats {
		for d, v := range row {
			mean[d] += v
		}
	}
	n := float64(len(feats))
	for d := range mean {
		mean[d] /= n
	}
	std := make([]float64, dim) // sums of squared deviations, then standard deviations
	for _, row := range feats {
		for d, v := range row {
			diff := v - mean[d]
			std[d] += diff * diff
		}
	}
	for d, ss := range std {
		variance := ss / n
		if variance < 1e-12 {
			variance = 1e-12
		}
		std[d] = math.Sqrt(variance)
	}
	for _, row := range feats {
		for d := range row {
			row[d] = (row[d] - mean[d]) / std[d]
		}
	}
}
