package speech

import (
	"fmt"
	"math/rand"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
)

// Utterance is one recorded phrase with its ground-truth metadata.
type Utterance struct {
	// Speaker is the name of the profile that produced the audio.
	Speaker string
	// Text is the digit string spoken.
	Text string
	// Session identifies the recording session (channel conditions vary
	// per session, which is what ISV compensates for).
	Session int
	// Audio is the rendered waveform after the session channel.
	Audio *audio.Signal
}

// Channel models per-session recording conditions: gain, additive noise
// and a gentle band-shaping filter. Distinct sessions of the same speaker
// differ by channel, mimicking different rooms/handsets.
type Channel struct {
	// Gain is the linear amplitude factor.
	Gain float64
	// NoiseRMS is the additive white-noise floor.
	NoiseRMS float64
	// LowCut and HighCut bound the passband in Hz (0 disables).
	LowCut, HighCut float64
}

// RandomChannel draws plausible session conditions.
func RandomChannel(rng *rand.Rand) Channel {
	return Channel{
		Gain:     0.6 + rng.Float64()*0.8,
		NoiseRMS: 0.002 + rng.Float64()*0.008,
		LowCut:   60 + rng.Float64()*120,
		HighCut:  5500 + rng.Float64()*1800,
	}
}

// Apply passes the signal through the channel, returning a new signal.
func (c Channel) Apply(s *audio.Signal, rng *rand.Rand) *audio.Signal {
	out := s.Clone()
	if c.LowCut > 0 {
		hp := dsp.NewHighPassBiquad(c.LowCut, out.Rate)
		hp.ProcessBlock(out.Samples)
	}
	if c.HighCut > 0 && c.HighCut < out.Rate/2 {
		lp := dsp.NewLowPassBiquad(c.HighCut, out.Rate)
		lp.ProcessBlock(out.Samples)
	}
	out.Scale(c.Gain)
	if c.NoiseRMS > 0 {
		for i := range out.Samples {
			out.Samples[i] += rng.NormFloat64() * c.NoiseRMS
		}
	}
	return out
}

// Roster is a set of speakers with their synthesizers.
type Roster struct {
	profiles []Profile
	rng      *rand.Rand
}

// NewRoster creates n speakers named speaker00..speakerNN drawn from the
// population distribution, seeded deterministically.
func NewRoster(n int, seed int64) *Roster {
	rng := rand.New(rand.NewSource(seed))
	r := &Roster{rng: rng}
	for i := 0; i < n; i++ {
		r.profiles = append(r.profiles, RandomProfile(fmt.Sprintf("speaker%02d", i), rng))
	}
	return r
}

// NewDistinctRoster creates n speakers like NewRoster but rejects draws
// whose voices land too close to an already-chosen speaker, mirroring a
// small human study panel where participants have audibly distinct
// voices. minDist is in ProfileDistance units; ~1.0 gives clearly
// different voices.
func NewDistinctRoster(n int, seed int64, minDist float64) *Roster {
	rng := rand.New(rand.NewSource(seed))
	r := &Roster{rng: rng}
	for i := 0; i < n; i++ {
		var p Profile
		for attempt := 0; ; attempt++ {
			p = RandomProfile(fmt.Sprintf("speaker%02d", i), rng)
			ok := true
			for _, q := range r.profiles {
				if ProfileDistance(p, q) < minDist {
					ok = false
					break
				}
			}
			// Give up after many tries rather than loop forever on an
			// over-constrained minDist.
			if ok || attempt > 200 {
				break
			}
		}
		r.profiles = append(r.profiles, p)
	}
	return r
}

// Profiles returns the roster's speaker profiles.
func (r *Roster) Profiles() []Profile {
	out := make([]Profile, len(r.profiles))
	copy(out, r.profiles)
	return out
}

// Len returns the number of speakers.
func (r *Roster) Len() int { return len(r.profiles) }

// Profile returns speaker i.
func (r *Roster) Profile(i int) Profile { return r.profiles[i] }

// RandomDigits returns an n-digit passphrase.
func (r *Roster) RandomDigits(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.rng.Intn(10))
	}
	return string(b)
}

// CorpusConfig controls corpus generation.
type CorpusConfig struct {
	// Sessions is the number of recording sessions per speaker.
	Sessions int
	// UtterancesPerSession is the number of phrases per session.
	UtterancesPerSession int
	// Digits is the passphrase length. If Text is set, Digits is ignored.
	Digits int
	// Text, when non-empty, fixes the phrase for every utterance
	// (text-dependent corpus, as in the paper's Test 1).
	Text string
}

// Generate renders a corpus for every speaker in the roster.
func (r *Roster) Generate(cfg CorpusConfig) ([]Utterance, error) {
	if cfg.Sessions <= 0 || cfg.UtterancesPerSession <= 0 {
		return nil, fmt.Errorf("speech: corpus needs positive sessions (%d) and utterances (%d)",
			cfg.Sessions, cfg.UtterancesPerSession)
	}
	if cfg.Text == "" && cfg.Digits <= 0 {
		return nil, fmt.Errorf("speech: corpus needs Text or positive Digits")
	}
	var out []Utterance
	for _, p := range r.profiles {
		synth, err := NewSynthesizer(p, r.rng)
		if err != nil {
			return nil, err
		}
		for sess := 0; sess < cfg.Sessions; sess++ {
			ch := RandomChannel(r.rng)
			for u := 0; u < cfg.UtterancesPerSession; u++ {
				text := cfg.Text
				if text == "" {
					text = r.RandomDigits(cfg.Digits)
				}
				raw, err := synth.SayDigits(text)
				if err != nil {
					return nil, fmt.Errorf("speech: rendering %q for %s: %w", text, p.Name, err)
				}
				out = append(out, Utterance{
					Speaker: p.Name,
					Text:    text,
					Session: sess,
					Audio:   ch.Apply(raw, r.rng),
				})
			}
		}
	}
	return out, nil
}

// BySpeakerSession groups utterance audio speaker → session →
// utterances, the shape core.TrainSpeakerVerifier consumes. Each
// speaker's sessions are indexed 0 through its highest session number,
// a session it never recorded left nil, and each session keeps its
// utterances in corpus order. Session numbers must be non-negative, as
// Roster.Generate writes them.
func BySpeakerSession(utts []Utterance) map[string][][]*audio.Signal {
	out := make(map[string][][]*audio.Signal)
	for _, u := range utts {
		sessions := out[u.Speaker]
		for len(sessions) <= u.Session {
			sessions = append(sessions, nil)
		}
		sessions[u.Session] = append(sessions[u.Session], u.Audio)
		out[u.Speaker] = sessions
	}
	return out
}
