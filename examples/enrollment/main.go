// Enrollment and human-impostor defense (Table I workflow): train the
// ASV back-end on a background population, enroll a five-user panel on
// digit passphrases, then attack each user with human imitators at three
// skill levels and with a machine voice-conversion attack. The example
// shows the division of labor the paper describes: the ASV stage stops
// human imitators, while the conversion attack — which passes ASV —
// must be (and is) stopped by the machine-attack stages.
//
//	go run ./examples/enrollment
package main

import (
	"fmt"
	"log"
	"math/rand"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/speech"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(31))

	// 1. Background population → UBM.
	background, err := backgroundCorpus(31)
	if err != nil {
		return err
	}
	verifier, err := core.TrainSpeakerVerifier(background, core.SpeakerVerifierConfig{Seed: 31})
	if err != nil {
		return err
	}

	// 2. Enroll a five-user panel, each with their own passphrase.
	panel := speech.NewDistinctRoster(5, 32, 1.2).Profiles()
	passphrases := make(map[string]string)
	for _, user := range panel {
		pass := fmt.Sprintf("%06d", 100000+rng.Intn(900000))
		passphrases[user.Name] = pass
		synth, err := speech.NewSynthesizer(user, rng)
		if err != nil {
			return err
		}
		var session []*audio.Signal
		for k := 0; k < 5; k++ {
			utt, err := synth.SayDigits(pass)
			if err != nil {
				return err
			}
			session = append(session, utt)
		}
		if err := verifier.Enroll(user.Name, [][]*audio.Signal{session}); err != nil {
			return err
		}
		fmt.Printf("enrolled %s with passphrase %s\n", user.Name, pass)
	}

	// 3. Calibrate each user's threshold on fresh genuine attempts, then
	//    attack with imitators.
	fmt.Println("\nhuman imitation attacks (ASV stage):")
	skills := []speech.ImitationSkill{
		speech.ImitatorNaive, speech.ImitatorPracticed, speech.ImitatorProfessional,
	}
	var attacks, stopped int
	for i, user := range panel {
		pass := passphrases[user.Name]
		synth, err := speech.NewSynthesizer(user, rng)
		if err != nil {
			return err
		}
		minGenuine := 1e18
		for k := 0; k < 3; k++ {
			utt, err := synth.SayDigits(pass)
			if err != nil {
				return err
			}
			s, err := verifier.Score(user.Name, utt)
			if err != nil {
				return err
			}
			if s < minGenuine {
				minGenuine = s
			}
		}
		verifier.Threshold = minGenuine

		impostor := panel[(i+1)%len(panel)]
		for _, skill := range skills {
			mimic := speech.Imitate(impostor, user, skill, rng)
			msynth, err := speech.NewSynthesizer(mimic, rng)
			if err != nil {
				return err
			}
			utt, err := msynth.SayDigits(pass)
			if err != nil {
				return err
			}
			res := verifier.Verify(user.Name, utt)
			attacks++
			verdict := "!! ACCEPTED"
			if !res.Pass {
				verdict = "rejected"
				stopped++
			}
			fmt.Printf("  %s imitating %s (skill %.2f): %s (score margin %+.3f)\n",
				impostor.Name, user.Name, float64(skill), verdict, res.Score)
		}
	}
	fmt.Printf("=> %d/%d imitation attacks stopped by ASV\n", stopped, attacks)

	// 4. The attack ASV cannot stop: high-quality voice conversion. Show
	//    that it passes the ASV stage but dies in the machine-attack
	//    cascade.
	fmt.Println("\nvoice-conversion attack (machine stages):")
	target := panel[0]
	attacker := speech.RandomProfile("mallory", rng)
	converted, err := speech.Convert(attacker, target, speech.ConverterAdvanced, passphrases[target.Name], rng)
	if err != nil {
		return err
	}
	verifier.Threshold = 0 // illustrative: even a permissive ASV
	asv := verifier.Verify(target.Name, converted)
	fmt.Printf("  ASV alone on converted voice: pass=%v (score %+.3f) — spectral checks are not enough\n",
		asv.Pass, asv.Score)

	system, err := core.BuildSystem(core.SystemConfig{FieldSeed: 33})
	if err != nil {
		return err
	}
	system.AttachIdentity(verifier)
	session, err := attack.Morph(attacker, target, speech.ConverterAdvanced, device.Catalog()[4],
		attack.Scenario{ClaimedUser: target.Name, Seed: 34, Passphrase: passphrases[target.Name]})
	if err != nil {
		return err
	}
	decision, err := system.Verify(session)
	if err != nil {
		return err
	}
	fmt.Printf("  full pipeline on the same attack: %v\n", decision)
	return nil
}

func backgroundCorpus(seed int64) (map[string][][]*audio.Signal, error) {
	roster := speech.NewRoster(8, seed+100)
	utts, err := roster.Generate(speech.CorpusConfig{
		Sessions: 2, UtterancesPerSession: 2, Digits: 6,
	})
	if err != nil {
		return nil, err
	}
	return speech.BySpeakerSession(utts), nil
}
