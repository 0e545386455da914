package speech

import (
	"fmt"
	"math"
	"math/rand"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
)

// Synthesizer renders phoneme sequences into audio for one speaker
// profile. It is a cascade formant synthesizer: a Rosenberg glottal pulse
// train (plus aspiration noise) excites four second-order resonators whose
// center frequencies track the phoneme targets.
type Synthesizer struct {
	profile Profile
	rate    float64
	rng     *rand.Rand
}

// NewSynthesizer validates the profile and constructs a synthesizer
// sampling at DefaultRate. The rng drives jitter/shimmer and noise; pass a
// deterministic source for reproducible renders.
func NewSynthesizer(p Profile, rng *rand.Rand) (*Synthesizer, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("speech: invalid profile %q: %w", p.Name, err)
	}
	return &Synthesizer{profile: p, rate: DefaultRate, rng: rng}, nil
}

// SayDigits renders the given digit string as a single utterance.
func (s *Synthesizer) SayDigits(digits string) (*audio.Signal, error) {
	seq, err := DigitsToPhonemes(digits)
	if err != nil {
		return nil, err
	}
	return s.Render(seq), nil
}

// control holds the per-sample interpolated articulation state.
type control struct {
	f         [4]float64
	bw        [4]float64
	voiced    float64 // 0..1 voicing amount
	frication float64
	amp       float64
}

// Render synthesizes a phoneme sequence. Formants, amplitude and voicing
// are linearly interpolated over a transition window between segments.
func (s *Synthesizer) Render(seq []Phoneme) *audio.Signal {
	if len(seq) == 0 {
		return &audio.Signal{Rate: s.rate}
	}
	p := s.profile

	// Build the sample-level control track.
	type segment struct {
		ph    Phoneme
		start int // sample index
		end   int
	}
	var segs []segment
	pos := 0
	for _, ph := range seq {
		n := int(ph.Dur / p.Rate * s.rate)
		if n < 1 {
			n = 1
		}
		segs = append(segs, segment{ph: ph, start: pos, end: pos + n})
		pos += n
	}
	total := pos
	out := &audio.Signal{Samples: make([]float64, total), Rate: s.rate}

	// Transition window: 20 ms cross-fade between adjacent segments.
	trans := int(0.02 * s.rate)

	ctrlAt := func(i int) control {
		// Locate segment.
		si := 0
		for si < len(segs)-1 && i >= segs[si].end {
			si++
		}
		cur := segs[si]
		c := controlFor(cur.ph, p)
		// Blend into next segment near the boundary.
		if si+1 < len(segs) {
			into := cur.end - i
			if into < trans {
				t := 0.5 * (1 - float64(into)/float64(trans))
				next := controlFor(segs[si+1].ph, p)
				c = blend(c, next, t)
			}
		}
		if si > 0 {
			from := i - cur.start
			if from < trans {
				t := 0.5 * (1 - float64(from)/float64(trans))
				prev := controlFor(segs[si-1].ph, p)
				c = blend(c, prev, t)
			}
		}
		return c
	}

	// Glottal source state.
	var (
		phase   float64 // in [0, 1) within a glottal cycle
		cycleF0 = p.F0Mean
		cycleA  = 1.0
	)
	// Per-utterance F0 declination: pitch falls ~15% across the utterance,
	// plus a slow sinusoidal intonation within F0Range.
	f0At := func(i int) float64 {
		frac := float64(i) / float64(total)
		decl := 1 - 0.15*frac
		inton := math.Sin(2*math.Pi*1.5*float64(i)/s.rate) * p.F0Range / 2
		return p.F0Mean*decl + inton
	}

	// Resonators are recreated per block to track formant movement.
	const block = 64
	res := make([]*dsp.Biquad, 4)
	tiltLP := dsp.NewLowPassBiquad(4000-3000*p.Tilt, s.rate)

	excitation := make([]float64, block)
	for b0 := 0; b0 < total; b0 += block {
		b1 := b0 + block
		if b1 > total {
			b1 = total
		}
		c := ctrlAt((b0 + b1) / 2)
		// Rebuild resonators with the current formant targets, preserving
		// state continuity via fresh filters on the excitation block.
		for k := 0; k < 4; k++ {
			res[k] = dsp.NewResonator(c.f[k], c.bw[k], s.rate)
		}
		for i := b0; i < b1; i++ {
			// Advance the glottal cycle.
			f0 := f0At(i)
			if phase >= 1 {
				phase -= 1
				// New cycle: apply jitter and shimmer.
				cycleF0 = f0 * (1 + p.Jitter*s.rng.NormFloat64())
				cycleA = 1 + p.Shimmer*s.rng.NormFloat64()
				if cycleF0 < 40 {
					cycleF0 = 40
				}
			}
			g := rosenberg(phase) * cycleA
			phase += cycleF0 / s.rate

			noise := s.rng.NormFloat64() * 0.4
			exc := c.voiced*g*(1-0.5*c.frication) +
				c.frication*noise +
				c.voiced*p.Breathiness*noise*0.5
			excitation[i-b0] = exc * c.amp
		}
		// Vocal tract: cascade resonators then spectral tilt.
		blockSamples := excitation[:b1-b0]
		for k := 0; k < 4; k++ {
			res[k].ProcessBlock(blockSamples)
		}
		for i := range blockSamples {
			out.Samples[b0+i] = tiltLP.Process(blockSamples[i])
		}
	}
	out.Normalize(0.7)
	return out
}

// controlFor applies the speaker profile to a phoneme's reference targets.
func controlFor(ph Phoneme, p Profile) control {
	var c control
	for k := 0; k < 4; k++ {
		f := ph.F[k]*p.TractScale + p.FormantBias[k]
		// Keep formants inside the representable band.
		if f < 150 {
			f = 150
		}
		if f > DefaultRate/2*0.95 {
			f = DefaultRate / 2 * 0.95
		}
		c.f[k] = f
		c.bw[k] = ph.BW[k] * p.BandwidthScale
	}
	if ph.Voiced {
		c.voiced = 1
	}
	c.frication = ph.Frication
	c.amp = ph.Amp
	return c
}

func blend(a, b control, t float64) control {
	var c control
	for k := 0; k < 4; k++ {
		c.f[k] = a.f[k] + (b.f[k]-a.f[k])*t
		c.bw[k] = a.bw[k] + (b.bw[k]-a.bw[k])*t
	}
	c.voiced = a.voiced + (b.voiced-a.voiced)*t
	c.frication = a.frication + (b.frication-a.frication)*t
	c.amp = a.amp + (b.amp-a.amp)*t
	return c
}

// rosenberg evaluates the Rosenberg glottal pulse at phase t ∈ [0, 1):
// a rising-falling flow pulse occupying the first 60% of the cycle.
func rosenberg(t float64) float64 {
	const (
		tp = 0.4 // rise fraction
		tn = 0.2 // fall fraction
	)
	switch {
	case t < tp:
		x := t / tp
		return 0.5 * (1 - math.Cos(math.Pi*x))
	case t < tp+tn:
		x := (t - tp) / tn
		return math.Cos(math.Pi / 2 * x)
	default:
		return 0
	}
}
