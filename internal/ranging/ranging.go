// Package ranging implements the paper's phase-based acoustic distance
// measurement (§IV-B1, following the device-free gesture tracking
// literature it cites): the phone's speaker emits an inaudible tone above
// 16 kHz; the echo off the user's head shifts phase as the phone moves,
// and I/Q demodulation of the microphone signal recovers sub-wavelength
// radial displacement. With an 18–20 kHz tone (λ ≈ 1.8 cm) the phase
// resolves millimeter-scale motion.
package ranging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
	"voiceguard/internal/parallel"
)

// SpeedOfSound in air, m/s.
// unit: m/s
const SpeedOfSound = 343.0

// DefaultPilotHz is the default pilot frequency: inaudible to most adults
// yet inside a 48 kHz capture band. The paper selects the highest usable
// frequency per device via calibration; 19 kHz is a safe common choice.
// unit: Hz
const DefaultPilotHz = 19000.0

// DefaultRate is the capture sample rate used for the pilot.
// unit: Hz
const DefaultRate = 48000.0

// CalibratePilot implements the per-device pilot selection the paper
// adopts from the SoundWave work: sweep candidate frequencies from high
// to low through the device's playback–capture loop and pick the highest
// frequency whose measured response clears the SNR floor. response(freq)
// returns the loop gain at freq (linear, 1 = nominal); minGain is the
// acceptance floor. Returns 0 if no candidate qualifies.
// unit: candidates Hz, minGain dimensionless, return Hz
func CalibratePilot(response func(freq float64) float64, candidates []float64, minGain float64) float64 {
	best := 0.0
	for _, f := range candidates {
		if f <= 0 {
			continue
		}
		if response(f) >= minGain && f > best {
			best = f
		}
	}
	return best
}

// DefaultPilotCandidates are the frequencies the calibration sweeps: the
// inaudible band in 250 Hz steps.
// unit: return Hz
func DefaultPilotCandidates() []float64 {
	var out []float64
	for f := 16000.0; f <= 22000; f += 250 {
		out = append(out, f)
	}
	return out
}

// SpeakerRolloff models a phone speaker's high-frequency response for
// calibration simulations: flat below the corner, then a steep roll-off.
// unit: corner Hz
func SpeakerRolloff(corner float64) func(freq float64) float64 {
	return func(freq float64) float64 {
		if freq <= corner {
			return 1
		}
		// ~48 dB/octave above the corner — phone micro-speakers die
		// quickly past their passband.
		octaves := math.Log2(freq / corner)
		return math.Pow(10, -48*octaves/20)
	}
}

// Pilot renders the transmitted tone of the given duration.
// unit: freq Hz, rate Hz, duration s
func Pilot(freq, rate, duration float64) *audio.Signal {
	s := audio.NewSignal(duration, rate)
	for i := range s.Samples {
		s.Samples[i] = 0.5 * math.Sin(2*math.Pi*freq*float64(i)/rate)
	}
	return s
}

// ChannelConfig describes the acoustic path between the phone's speaker
// and microphone during the gesture.
type ChannelConfig struct {
	// Freq is the pilot frequency in Hz.
	// unit: Hz
	Freq float64
	// Rate is the capture sample rate in Hz.
	// unit: Hz
	Rate float64
	// LeakGain is the direct speaker→mic leak amplitude (dominant,
	// static).
	// unit: dimensionless
	LeakGain float64
	// EchoGain is the head-echo amplitude.
	// unit: dimensionless
	EchoGain float64
	// NoiseRMS is additive capture noise.
	// unit: dimensionless
	NoiseRMS float64
	// MultipathGain adds a second static reflection (room surface).
	// unit: dimensionless
	MultipathGain float64
}

// DefaultChannel returns a typical handset channel.
func DefaultChannel() ChannelConfig {
	return ChannelConfig{
		Freq:          DefaultPilotHz,
		Rate:          DefaultRate,
		LeakGain:      0.30,
		EchoGain:      0.08,
		NoiseRMS:      0.005,
		MultipathGain: 0.02,
	}
}

// Simulate renders the microphone capture while the phone-to-head
// distance follows dist(t) (meters) over the given duration. The echo
// travels the round trip 2·dist(t). The noiseless leak, echo and
// multipath sum is computed in parallel sample blocks, so dist is called
// from several goroutines at once and must be pure: a function of t
// alone, with no state it writes. The seeded noise is then added in one
// serial pass in sample order, so the RNG stream and every sample have
// the bits of a serial loop at any worker count.
// unit: duration s
func Simulate(cfg ChannelConfig, duration float64, dist func(t float64) float64, rng *rand.Rand) (*audio.Signal, error) {
	if cfg.Freq <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("ranging: bad channel freq=%v rate=%v", cfg.Freq, cfg.Rate)
	}
	if cfg.Freq >= cfg.Rate/2 {
		return nil, fmt.Errorf("ranging: pilot %v Hz at/above Nyquist of %v Hz", cfg.Freq, cfg.Rate)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("ranging: duration %v must be positive", duration)
	}
	s := audio.NewSignal(duration, cfg.Rate)
	w := 2 * math.Pi * cfg.Freq
	// Fixed multipath delay off a nearby room surface.
	const reflectorMeters = 0.5
	mpPhase := w * (2 * reflectorMeters / SpeedOfSound)
	parallel.Range(len(s.Samples), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := float64(i) / cfg.Rate
			v := cfg.LeakGain * math.Sin(w*t)
			d := dist(t)
			v += cfg.EchoGain * math.Sin(w*(t-2*d/SpeedOfSound))
			if cfg.MultipathGain > 0 {
				v += cfg.MultipathGain * math.Sin(w*t-mpPhase)
			}
			s.Samples[i] = v
		}
	})
	if cfg.NoiseRMS > 0 && rng != nil {
		for i := range s.Samples {
			s.Samples[i] += rng.NormFloat64() * cfg.NoiseRMS
		}
	}
	return s, nil
}

// Displacement is a recovered radial displacement track.
type Displacement struct {
	// T holds block-center times in seconds.
	// unit: s
	T []float64
	// Dr holds radial displacement in meters relative to the start of
	// the capture (positive = moving away).
	// unit: m
	Dr []float64
}

// ErrCaptureTooShort is returned when the capture has fewer than three
// analysis blocks.
var ErrCaptureTooShort = errors.New("ranging: capture too short for displacement recovery")

// RecoverConfig tunes displacement recovery.
type RecoverConfig struct {
	// Freq is the pilot frequency in Hz.
	// unit: Hz
	Freq float64
	// BlockSize is the demodulation block in samples (default 256, i.e.
	// ~5.3 ms at 48 kHz → ~190 Hz displacement bandwidth).
	BlockSize int
}

// Recover extracts the radial displacement of the echo path from a
// capture. It demodulates the pilot to baseband I/Q per block, removes
// the static leak/multipath phasor (the capture-wide mean), and unwraps
// the phase of the remaining dynamic (echo) phasor. Displacement follows
// from Δφ = -4π·Δd/λ. A capture that cannot be demodulated is an error:
// a rate that is not finite and positive, a pilot outside (0, rate/2),
// or samples that make a block's I/Q non-finite. Recover computes the
// pilot phasors for this capture alone; a verifier that demodulates
// many captures of one pilot reads them from a PhasorCache instead.
func Recover(capture *audio.Signal, cfg RecoverConfig) (*Displacement, error) {
	return recoverWith(capture, cfg, demodulateUncached)
}

// recoverWith is Recover with the demodulator as a parameter, so tests
// can run the same checks and phase recovery over a reference one.
func recoverWith(capture *audio.Signal, cfg RecoverConfig, demod func(samples []float64, w float64, blockSize, n int) []complex128) (*Displacement, error) {
	rate := capture.Rate
	if !finite(rate) || rate <= 0 {
		return nil, fmt.Errorf("ranging: bad capture rate %v", rate)
	}
	if !finite(cfg.Freq) || cfg.Freq <= 0 || cfg.Freq >= rate/2 {
		return nil, fmt.Errorf("ranging: pilot %v Hz outside (0, %v) Hz for a %v Hz capture", cfg.Freq, rate/2, rate)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 256
	}
	if cfg.BlockSize < 16 {
		return nil, fmt.Errorf("ranging: block size %d too small", cfg.BlockSize)
	}
	n := len(capture.Samples) / cfg.BlockSize
	if n < 3 {
		return nil, ErrCaptureTooShort
	}
	iq := demod(capture.Samples, 2*math.Pi*cfg.Freq/rate, cfg.BlockSize, n)
	for b, z := range iq {
		if !finite(real(z)) || !finite(imag(z)) {
			return nil, fmt.Errorf("ranging: non-finite I/Q in block %d", b)
		}
	}
	// Remove the static component (leak + fixed multipath): the
	// capture-wide mean. The moving echo's phasor rotates through full
	// circles over centimeter-scale motion, so its contribution to the
	// mean is small.
	var mean complex128
	for _, z := range iq {
		mean += z
	}
	mean /= complex(float64(n), 0)
	// Noise gate: when the scene is static the dynamic phasor is pure
	// noise and its phase would random-walk. Estimate the noise floor
	// from block-to-block I/Q steps (motion moves the phasor smoothly;
	// noise dominates the per-block difference) and hold the phase for
	// blocks whose dynamic magnitude sits at that floor.
	steps := make([]float64, 0, n-1)
	for b := 1; b < n; b++ {
		d := iq[b] - iq[b-1]
		steps = append(steps, math.Hypot(real(d), imag(d)))
	}
	slices.Sort(steps)
	gate := 0.0
	if len(steps) > 0 {
		gate = 3 * steps[len(steps)/2] / math.Sqrt2
	}
	phase := make([]float64, n)
	var prev float64
	for b, z := range iq {
		d := z - mean
		if math.Hypot(real(d), imag(d)) < gate {
			phase[b] = prev
			continue
		}
		phase[b] = math.Atan2(imag(d), real(d))
		prev = phase[b]
	}
	dsp.Unwrap(phase)
	lambda := SpeedOfSound / cfg.Freq
	out := &Displacement{T: make([]float64, n), Dr: make([]float64, n)}
	for b := 0; b < n; b++ {
		out.T[b] = (float64(b) + 0.5) * float64(cfg.BlockSize) / capture.Rate
		// Round trip: Δφ = -2π·(2Δd)/λ.
		out.Dr[b] = -(phase[b] - phase[0]) * lambda / (4 * math.Pi)
	}
	return out, nil
}

// demodulate mixes the first n blocks of samples down to baseband with
// the pilot phasor e^{-iwk} and sums each block to one I/Q value. The
// phasors come from table, which holds e^{-iwk} for k < len(table) and
// may be empty; with fill set, each block first fills its own span of
// it. A block past the table's end fills a per-range scratch instead.
// Either way every block runs the one inner loop, its sum serially in
// sample order over the same Sincos values, so every I/Q value carries
// the bits of a per-sample Sincos loop at any GOMAXPROCS.
// unit: w rad
func demodulate(samples []float64, w float64, blockSize, n int, table []complex128, fill bool) []complex128 {
	iq := make([]complex128, n)
	parallel.Range(n, func(lo, hi int) {
		var scratch []complex128
		for b := lo; b < hi; b++ {
			off := b * blockSize
			ph := table[min(off, len(table)):min(off+blockSize, len(table))]
			if fill {
				fillPhasors(ph, w, off)
			}
			if len(ph) < blockSize {
				if scratch == nil {
					scratch = make([]complex128, blockSize)
				}
				fillPhasors(scratch, w, off)
				ph = scratch
			}
			var re, im float64
			for k, v := range samples[off : off+blockSize] {
				re += v * real(ph[k])
				im += v * imag(ph[k])
			}
			iq[b] = complex(re, im)
		}
	})
	return iq
}

// demodulateUncached demodulates with per-block phasors only, keeping
// no table.
// unit: w rad
func demodulateUncached(samples []float64, w float64, blockSize, n int) []complex128 {
	return demodulate(samples, w, blockSize, n, nil, false)
}

// fillPhasors sets dst[k] = e^{-iw(off+k)}. One Sincos per sample shares
// the argument reduction that separate Sin and Cos calls would each
// repeat, and returns the same bits (Go's pure-Go Sincos uses the same
// reduction and polynomials as its Sin and Cos). The negation is exact.
// unit: w rad
func fillPhasors(dst []complex128, w float64, off int) {
	for k := range dst {
		sin, cos := math.Sincos(w * float64(off+k))
		dst[k] = complex(cos, -sin)
	}
}

// maxTablePhasors caps a phasor table: 2.73 s at 48 kHz, 2 MiB. The
// client chooses the capture length, so samples past the cap are
// demodulated from per-block scratch rather than grow the table.
const maxTablePhasors = 1 << 17

// A PhasorCache keeps the pilot phasor table of the last pilot it
// demodulated, so a verifier whose sessions share a pilot skips the
// per-sample Sincos calls after the first. The client chooses both the
// pilot and the capture length, so the cache is bounded: one table of
// at most maxTablePhasors entries, 2 MiB. A pilot other than the cached
// one builds its table and takes the slot. The zero value is ready for
// use, and one PhasorCache may serve any number of goroutines.
type PhasorCache struct {
	last atomic.Pointer[phasorTable]
}

// phasorTable is e^{-iwk} for k < len(phasors), where wBits holds the
// bits of w. The phasors are never written after the table is cached.
type phasorTable struct {
	wBits   uint64
	phasors []complex128
}

// Recover is the package's Recover with its phasors from the cache.
func (c *PhasorCache) Recover(capture *audio.Signal, cfg RecoverConfig) (*Displacement, error) {
	return recoverWith(capture, cfg, c.demodulate)
}

// demodulate is demodulate over the cached table for w if it covers the
// n blocks (or the table cap); otherwise it fills a new table and
// stores it.
// unit: w rad
func (c *PhasorCache) demodulate(samples []float64, w float64, blockSize, n int) []complex128 {
	bits := math.Float64bits(w)
	need := min(n*blockSize, maxTablePhasors)
	if t := c.last.Load(); t.covers(bits, need) {
		return demodulate(samples, w, blockSize, n, t.phasors, false)
	}
	fresh := &phasorTable{wBits: bits, phasors: make([]complex128, need)}
	iq := demodulate(samples, w, blockSize, n, fresh.phasors, true)
	c.store(fresh)
	return iq
}

// store puts a filled table in the slot, unless the slot holds a table
// for the same w that is at least as long by then: a short capture's
// build that finishes after a longer one for its pilot must not make the
// next session rebuild.
func (c *PhasorCache) store(fresh *phasorTable) {
	for {
		t := c.last.Load()
		if t.covers(fresh.wBits, len(fresh.phasors)) || c.last.CompareAndSwap(t, fresh) {
			return
		}
	}
}

// covers reports whether t is a table for the w whose bits are wBits
// with at least need entries. A nil t covers nothing.
func (t *phasorTable) covers(wBits uint64, need int) bool {
	return t != nil && t.wBits == wBits && len(t.phasors) >= need
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// At linearly interpolates the displacement at time t, clamping to the
// track ends.
// unit: t s, return m
func (d *Displacement) At(t float64) float64 {
	if len(d.T) == 0 {
		return 0
	}
	if t <= d.T[0] {
		return d.Dr[0]
	}
	if t >= d.T[len(d.T)-1] {
		return d.Dr[len(d.Dr)-1]
	}
	lo, hi := 0, len(d.T)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if d.T[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (t - d.T[lo]) / (d.T[hi] - d.T[lo])
	return d.Dr[lo] + f*(d.Dr[hi]-d.Dr[lo])
}

// Total returns the net displacement over the track.
// unit: return m
func (d *Displacement) Total() float64 {
	if len(d.Dr) == 0 {
		return 0
	}
	return d.Dr[len(d.Dr)-1] - d.Dr[0]
}

// SpectrogramOfCapture computes the pilot-band magnitude spectrogram of a
// capture — the artifact the paper shows as Fig. 6.
func SpectrogramOfCapture(capture *audio.Signal) (*dsp.Spectrogram, error) {
	return dsp.STFT(capture.Samples, dsp.STFTConfig{
		FrameSize:  1024,
		HopSize:    256,
		SampleRate: capture.Rate,
	})
}
