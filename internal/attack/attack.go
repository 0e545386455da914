// Package attack builds complete verification sessions — genuine and
// adversarial — against the VoiceGuard pipeline. It wires together the
// speech substrate (what audio is produced), the device catalog (which
// loudspeaker plays it), the magnetics scene (what the magnetometer
// sees), the sound-field models (what the sweep measures) and the gesture
// simulator (how the phone moves), covering the paper's full adversary
// model (§III-A): replay, voice-morphing, TTS synthesis, human imitation,
// plus the §VII sound-tube and shielded-speaker variants.
package attack

import (
	"fmt"
	"math/rand"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/dsp"
	"voiceguard/internal/geometry"
	"voiceguard/internal/magnetics"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/speech"
	"voiceguard/internal/stats"
	"voiceguard/internal/trajectory"
)

// Scenario fixes the physical conditions of one session.
type Scenario struct {
	// Environment selects the ambient EMF conditions.
	Environment magnetics.EnvironmentKind
	// Distance is the true phone→source distance during the sweep, m.
	Distance float64
	// Passphrase is the digit string spoken/played.
	Passphrase string
	// ClaimedUser is the identity asserted to the verifier.
	ClaimedUser string
	// Seed drives all randomness of the session.
	Seed int64
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Environment == 0 {
		sc.Environment = magnetics.EnvQuiet
	}
	if stats.IsZero(sc.Distance) {
		sc.Distance = 0.06
	}
	if sc.Passphrase == "" {
		sc.Passphrase = "472913"
	}
	if sc.ClaimedUser == "" {
		sc.ClaimedUser = "victim"
	}
	return sc
}

// phoneZ is the height of the gesture plane used by all sessions.
const phoneZ = 0.0

// Genuine builds a legitimate session: the victim speaks the passphrase
// with the phone swept in front of their mouth.
func Genuine(victim speech.Profile, sc Scenario) (*core.SessionData, error) {
	sc = sc.withDefaults()
	if sc.ClaimedUser == "" {
		sc.ClaimedUser = victim.Name
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	scene := magnetics.NewEnvironment(sc.Environment, sc.Seed)
	gesture, err := trajectory.SimulateGesture(trajectory.GestureConfig{
		UseCase: trajectory.StandardUseCase(sc.Distance),
		Scene:   scene,
		PhoneZ:  phoneZ,
		Seed:    sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: genuine gesture: %w", err)
	}
	field, err := soundfield.Sweep(soundfield.Mouth(), soundfield.DefaultSweep(sc.Distance), rng)
	if err != nil {
		return nil, fmt.Errorf("attack: genuine sweep: %w", err)
	}
	synth, err := speech.NewSynthesizer(victim, rng)
	if err != nil {
		return nil, fmt.Errorf("attack: genuine synth: %w", err)
	}
	voice, err := synth.SayDigits(sc.Passphrase)
	if err != nil {
		return nil, fmt.Errorf("attack: genuine voice: %w", err)
	}
	return &core.SessionData{
		ClaimedUser: sc.ClaimedUser,
		Gesture:     gesture,
		Field:       field,
		Voice:       voice,
	}, nil
}

// machineSession builds the common machine-attack structure: audio played
// through the given loudspeaker at the scenario distance, optionally
// shielded with Mu-metal.
func machineSession(voice *audio.Signal, spk device.Loudspeaker, shielded bool, sc Scenario) (*core.SessionData, error) {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	useCase := trajectory.StandardUseCase(sc.Distance)

	// Magnetic scene: ambient + the loudspeaker at the source position,
	// its coil driven by the playback audio.
	scene := magnetics.NewEnvironment(sc.Environment, sc.Seed)
	speakerPos := geometry.Vec3{X: useCase.SourcePos.X, Y: useCase.SourcePos.Y, Z: phoneZ}
	drive := driveFromSignal(voice)
	sources := spk.FieldSources(speakerPos, drive)
	if shielded {
		geo := magnetics.DefaultGeomagnetic()
		for _, src := range sources {
			scene.Add(&magnetics.Shield{
				Enclosed:      src,
				Position:      speakerPos,
				Attenuation:   magnetics.MuMetalAttenuation,
				InducedMoment: 2e-4,
				Ambient:       geo,
			})
		}
	} else {
		for _, src := range sources {
			scene.Add(src)
		}
	}

	gesture, err := trajectory.SimulateGesture(trajectory.GestureConfig{
		UseCase: useCase,
		Scene:   scene,
		PhoneZ:  phoneZ,
		Seed:    sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: machine gesture: %w", err)
	}
	field, err := soundfield.Sweep(spk.Source(), soundfield.DefaultSweep(sc.Distance), rng)
	if err != nil {
		return nil, fmt.Errorf("attack: machine sweep: %w", err)
	}
	return &core.SessionData{
		ClaimedUser: sc.ClaimedUser,
		Gesture:     gesture,
		Field:       field,
		Voice:       PlaybackColoration(voice, rng),
	}, nil
}

// Replay builds the Type-1 attack: a prior recording of the victim played
// through a loudspeaker.
func Replay(recording *audio.Signal, spk device.Loudspeaker, sc Scenario) (*core.SessionData, error) {
	return machineSession(recording, spk, false, sc)
}

// ShieldedReplay is Replay with the loudspeaker wrapped in Mu-metal
// (§VI "Magnetic Field Shielding").
func ShieldedReplay(recording *audio.Signal, spk device.Loudspeaker, sc Scenario) (*core.SessionData, error) {
	return machineSession(recording, spk, true, sc)
}

// Morph builds the Type-2 attack: the attacker's speech converted toward
// the victim and played through a loudspeaker.
func Morph(attacker, victim speech.Profile, q speech.ConversionQuality, spk device.Loudspeaker, sc Scenario) (*core.SessionData, error) {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	voice, err := speech.Convert(attacker, victim, q, sc.Passphrase, rng)
	if err != nil {
		return nil, fmt.Errorf("attack: morphing: %w", err)
	}
	return machineSession(voice, spk, false, sc)
}

// Synthesis builds the Type-3 attack: TTS in the victim's voice played
// through a loudspeaker.
func Synthesis(victim speech.Profile, spk device.Loudspeaker, sc Scenario) (*core.SessionData, error) {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed + 3))
	voice, err := speech.Synthesize(victim, sc.Passphrase, rng)
	if err != nil {
		return nil, fmt.Errorf("attack: synthesis: %w", err)
	}
	return machineSession(voice, spk, false, sc)
}

// Imitation builds the human-based attack: a live impostor imitating the
// victim. No loudspeaker is involved, so stages 1–3 see a genuine-looking
// session; only the ASV stage can stop it.
func Imitation(attacker, victim speech.Profile, skill speech.ImitationSkill, sc Scenario) (*core.SessionData, error) {
	sc = sc.withDefaults()
	if sc.ClaimedUser == "" {
		sc.ClaimedUser = victim.Name
	}
	rng := rand.New(rand.NewSource(sc.Seed + 4))
	imitated := speech.Imitate(attacker, victim, skill, rng)
	session, err := Genuine(imitated, Scenario{
		Environment: sc.Environment,
		Distance:    sc.Distance,
		Passphrase:  sc.Passphrase,
		ClaimedUser: sc.ClaimedUser,
		Seed:        sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: imitation: %w", err)
	}
	return session, nil
}

// SoundTube builds the §VII sound-tube attack: a loudspeaker feeds a
// plastic tube whose opening is presented at mouth distance while the
// speaker itself sits a tube length away. The magnetometer sees only the
// distant speaker; the sound field carries the tube's signature.
func SoundTube(recording *audio.Signal, spk device.Loudspeaker, tube *soundfield.Tube, sc Scenario) (*core.SessionData, error) {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed + 5))
	useCase := trajectory.StandardUseCase(sc.Distance)

	scene := magnetics.NewEnvironment(sc.Environment, sc.Seed)
	// The speaker body sits a tube length behind the opening.
	speakerPos := geometry.Vec3{
		X: useCase.SourcePos.X - tube.Length,
		Y: useCase.SourcePos.Y,
		Z: phoneZ,
	}
	for _, src := range spk.FieldSources(speakerPos, driveFromSignal(recording)) {
		scene.Add(src)
	}
	gesture, err := trajectory.SimulateGesture(trajectory.GestureConfig{
		UseCase: useCase,
		Scene:   scene,
		PhoneZ:  phoneZ,
		Seed:    sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("attack: tube gesture: %w", err)
	}
	field, err := soundfield.Sweep(tube, soundfield.DefaultSweep(sc.Distance), rng)
	if err != nil {
		return nil, fmt.Errorf("attack: tube sweep: %w", err)
	}
	return &core.SessionData{
		ClaimedUser: sc.ClaimedUser,
		Gesture:     gesture,
		Field:       field,
		Voice:       PlaybackColoration(recording, rng),
	}, nil
}

// Record captures the victim's voice as an attacker would (public
// exposure per §I): the utterance rendered through a mild room/recorder
// channel.
func Record(victim speech.Profile, passphrase string, seed int64) (*audio.Signal, error) {
	rng := rand.New(rand.NewSource(seed))
	synth, err := speech.NewSynthesizer(victim, rng)
	if err != nil {
		return nil, fmt.Errorf("attack: recording synth: %w", err)
	}
	voice, err := synth.SayDigits(passphrase)
	if err != nil {
		return nil, fmt.Errorf("attack: recording voice: %w", err)
	}
	ch := speech.Channel{Gain: 0.8, NoiseRMS: 0.004, LowCut: 80, HighCut: 7000}
	return ch.Apply(voice, rng), nil
}

// PlaybackColoration applies the mild spectral coloration of playback
// through a loudspeaker: band-limiting and a touch of noise. Deliberately
// gentle — the paper's premise is that replayed audio passes spectral ASV
// checks.
func PlaybackColoration(s *audio.Signal, rng *rand.Rand) *audio.Signal {
	out := s.Clone()
	hp := dsp.NewHighPassBiquad(90, out.Rate)
	hp.ProcessBlock(out.Samples)
	lp := dsp.NewLowPassBiquad(7200, out.Rate)
	lp.ProcessBlock(out.Samples)
	for i := range out.Samples {
		out.Samples[i] += rng.NormFloat64() * 0.003
	}
	return out
}

// driveFromSignal converts an audio signal into a voice-coil drive
// function over gesture time.
func driveFromSignal(s *audio.Signal) func(t float64) float64 {
	if s == nil || s.Len() == 0 {
		return nil
	}
	return func(t float64) float64 {
		i := int(t * s.Rate)
		if i < 0 || i >= s.Len() {
			return 0
		}
		return s.Samples[i]
	}
}
