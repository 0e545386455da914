package experiment

import (
	"fmt"
	"math/rand"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/speech"
	"voiceguard/internal/stats"
)

// TableIConfig parameterizes the Table I reproduction: the FAR of the
// Spear-style ASV back-ends against human-based impersonation.
type TableIConfig struct {
	// Seed drives all randomness.
	Seed int64
	// UBMComponents is the mixture size (default 32).
	UBMComponents int
}

// TableIRow is one cell of Table I.
type TableIRow struct {
	// Backend names the scoring model ("UBM" or "ISV" in the paper).
	Backend core.Backend
	// Test identifies the protocol: 1 = five-speaker passphrase panel
	// with imitators; 2 = cross-corpus (train on corpus A, test on
	// corpus B with the same utterance).
	Test int
	// FARPercent is the false acceptance rate at the zero-FRR threshold,
	// mirroring the paper's procedure of tuning for perfect genuine
	// acceptance on the small panel.
	FARPercent float64
	// EERPercent is the equal error rate of the score distributions.
	EERPercent float64
	// Genuine and Impostor count the trials.
	Genuine, Impostor int
}

// String implements fmt.Stringer.
func (r TableIRow) String() string {
	return fmt.Sprintf("%-7v test %d: FAR %.1f%%  EER %.1f%%  (%d genuine, %d impostor)",
		r.Backend, r.Test, r.FARPercent, r.EERPercent, r.Genuine, r.Impostor)
}

// RunTableI evaluates GMM-UBM and ISV on both of the paper's tests.
func RunTableI(cfg TableIConfig) ([]TableIRow, error) {
	if cfg.UBMComponents == 0 {
		cfg.UBMComponents = 32
	}
	var rows []TableIRow
	for _, backend := range []core.Backend{core.BackendGMMUBM, core.BackendISV} {
		for _, test := range []int{1, 2} {
			row, err := runTableICell(backend, test, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment: table I %v test %d: %w", backend, test, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runTableICell(backend core.Backend, test int, cfg TableIConfig) (TableIRow, error) {
	seed := cfg.Seed + int64(backend)*1000 + int64(test)*100
	rng := rand.New(rand.NewSource(seed))

	// Background population for the UBM / ISV training (disjoint from
	// the test panel).
	bgRoster := speech.NewRoster(8, seed+1)
	bg, err := corpusSessions(bgRoster)
	if err != nil {
		return TableIRow{}, err
	}
	verifier, err := core.TrainSpeakerVerifier(bg, core.SpeakerVerifierConfig{
		Backend:    backend,
		Components: cfg.UBMComponents,
		ISVRank:    6,
		Seed:       seed,
	})
	if err != nil {
		return TableIRow{}, err
	}

	panel := speech.NewDistinctRoster(5, seed+3, 1.2).Profiles()
	// Scores are collected per victim: each enrolled model has its own
	// score scale, so thresholds are calibrated per user (as a deployed
	// text-dependent system would) and the pooled metrics use per-victim
	// centered scores.
	perVictim := make([]*stats.ScoreSet, len(panel))
	for i := range perVictim {
		perVictim[i] = &stats.ScoreSet{}
	}

	// phoneChannel is the fixed capture channel of the test handset:
	// test 1's recordings all come from the same phone, so enrollment
	// and test share it.
	phoneChannel := speech.Channel{Gain: 0.8, NoiseRMS: 0.004, LowCut: 100, HighCut: 7000}

	switch test {
	case 1:
		// Test 1: each speaker speaks a unique six-digit passphrase;
		// other speakers then collect and imitate it.
		for i, victim := range panel {
			pass := fmt.Sprintf("%06d", 100000+rng.Intn(900000))
			enroll, err := renderSessionsVia(victim, pass, 2, 3, phoneChannel, rng)
			if err != nil {
				return TableIRow{}, err
			}
			if err := verifier.Enroll(victim.Name, enroll); err != nil {
				return TableIRow{}, err
			}
			// Genuine trials (paper: five per speaker).
			for k := 0; k < 5; k++ {
				utt, err := renderOne(victim, pass, rng)
				if err != nil {
					return TableIRow{}, err
				}
				s, err := verifier.Score(victim.Name, phoneChannel.Apply(utt, rng))
				if err != nil {
					return TableIRow{}, err
				}
				perVictim[i].Add(s, true)
			}
			// Imitation trials: every other panelist mimics the victim.
			for j, imp := range panel {
				if j == i {
					continue
				}
				mimic := speech.Imitate(imp, victim, speech.ImitatorPracticed, rng)
				utt, err := renderOne(mimic, pass, rng)
				if err != nil {
					return TableIRow{}, err
				}
				s, err := verifier.Score(victim.Name, phoneChannel.Apply(utt, rng))
				if err != nil {
					return TableIRow{}, err
				}
				perVictim[i].Add(s, false)
			}
		}
	case 2:
		// Test 2: train/enroll on corpus A conditions, test on corpus B
		// (different channel conditions, same utterance) — the paper's
		// Voxforge→CMU-Arctic analogue. Impostors speak the same phrase.
		pass := DefaultPassphrase
		chB := speech.Channel{Gain: 0.5, NoiseRMS: 0.012, LowCut: 150, HighCut: 5200}
		for i, victim := range panel {
			enroll, err := renderSessions(victim, pass, 2, 3, rng)
			if err != nil {
				return TableIRow{}, err
			}
			if err := verifier.Enroll(victim.Name, enroll); err != nil {
				return TableIRow{}, err
			}
			for k := 0; k < 5; k++ {
				utt, err := renderOne(victim, pass, rng)
				if err != nil {
					return TableIRow{}, err
				}
				s, err := verifier.Score(victim.Name, chB.Apply(utt, rng))
				if err != nil {
					return TableIRow{}, err
				}
				perVictim[i].Add(s, true)
			}
			for j, imp := range panel {
				if j == i {
					continue
				}
				utt, err := renderOne(imp, pass, rng)
				if err != nil {
					return TableIRow{}, err
				}
				s, err := verifier.Score(victim.Name, chB.Apply(utt, rng))
				if err != nil {
					return TableIRow{}, err
				}
				perVictim[i].Add(s, false)
			}
		}
	default:
		return TableIRow{}, fmt.Errorf("experiment: unknown test %d", test)
	}

	// Per-victim zero-FRR thresholds; pool FAR across victims. EER uses
	// per-victim mean-centered scores so differing model scales do not
	// smear the distributions.
	var falseAccepts, impostors, genuine int
	pooled := &stats.ScoreSet{}
	for _, set := range perVictim {
		th := minFloat(set.Genuine)
		for _, s := range set.Impostor {
			impostors++
			if s >= th {
				falseAccepts++
			}
		}
		genuine += len(set.Genuine)
		gm, err := stats.Mean(set.Genuine)
		if err != nil {
			return TableIRow{}, err
		}
		for _, s := range set.Genuine {
			pooled.Add(s-gm, true)
		}
		for _, s := range set.Impostor {
			pooled.Add(s-gm, false)
		}
	}
	eer, _ := pooled.EER()
	return TableIRow{
		Backend:    backend,
		Test:       test,
		FARPercent: 100 * float64(falseAccepts) / float64(impostors),
		EERPercent: 100 * eer,
		Genuine:    genuine,
		Impostor:   impostors,
	}, nil
}

func minFloat(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// corpusSessions renders a roster's background corpus, two sessions of
// two six-digit utterances per speaker, grouped speaker → session →
// utterances, the shape core.TrainSpeakerVerifier consumes.
func corpusSessions(roster *speech.Roster) (map[string][][]*audio.Signal, error) {
	utts, err := roster.Generate(speech.CorpusConfig{
		Sessions:             2,
		UtterancesPerSession: 2,
		Digits:               6,
	})
	if err != nil {
		return nil, err
	}
	return speech.BySpeakerSession(utts), nil
}

// renderSessions renders enrollment sessions for a speaker with a fresh
// random channel per session.
func renderSessions(p speech.Profile, pass string, sessions, uttsPer int, rng *rand.Rand) ([][]*audio.Signal, error) {
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		return nil, err
	}
	out := make([][]*audio.Signal, sessions)
	for s := range out {
		ch := speech.RandomChannel(rng)
		for k := 0; k < uttsPer; k++ {
			utt, err := synth.SayDigits(pass)
			if err != nil {
				return nil, err
			}
			out[s] = append(out[s], ch.Apply(utt, rng))
		}
	}
	return out, nil
}

// renderSessionsVia renders enrollment sessions through one fixed channel
// (same-device recording).
func renderSessionsVia(p speech.Profile, pass string, sessions, uttsPer int, ch speech.Channel, rng *rand.Rand) ([][]*audio.Signal, error) {
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		return nil, err
	}
	out := make([][]*audio.Signal, sessions)
	for s := range out {
		for k := 0; k < uttsPer; k++ {
			utt, err := synth.SayDigits(pass)
			if err != nil {
				return nil, err
			}
			out[s] = append(out[s], ch.Apply(utt, rng))
		}
	}
	return out, nil
}

// renderOne renders a single test utterance.
func renderOne(p speech.Profile, pass string, rng *rand.Rand) (*audio.Signal, error) {
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		return nil, err
	}
	return synth.SayDigits(pass)
}
