package core

import (
	"math/rand"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/speech"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildBackground renders a small background corpus for ASV training.
func buildBackground(t testing.TB, nSpeakers int, seed int64) map[string][][]*audio.Signal {
	t.Helper()
	roster := speech.NewRoster(nSpeakers, seed)
	utts, err := roster.Generate(speech.CorpusConfig{
		Sessions: 2, UtterancesPerSession: 2, Digits: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return speech.BySpeakerSession(utts)
}

func TestSpeakerVerifierGMMSeparates(t *testing.T) {
	bg := buildBackground(t, 4, 100)
	v, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{Components: 16, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if v.Backend() != BackendGMMUBM {
		t.Errorf("backend = %v", v.Backend())
	}
	// Enroll a fresh victim and test genuine vs impostor.
	rng := newTestRand(101)
	victim := speech.RandomProfile("victim", rng)
	other := speech.RandomProfile("other", rng)
	enroll := renderUtterances(t, victim, "135790", 4, rng)
	if err := v.Enroll("victim", [][]*audio.Signal{enroll}); err != nil {
		t.Fatal(err)
	}
	genuine := renderUtterances(t, victim, "135790", 1, rng)[0]
	impostor := renderUtterances(t, other, "135790", 1, rng)[0]
	gs, err := v.Score("victim", genuine)
	if err != nil {
		t.Fatal(err)
	}
	is, err := v.Score("victim", impostor)
	if err != nil {
		t.Fatal(err)
	}
	if gs <= is {
		t.Errorf("genuine %v <= impostor %v", gs, is)
	}
	// Stage verdict at a threshold between the two scores.
	v.Threshold = (gs + is) / 2
	if !v.Verify("victim", genuine).Pass {
		t.Error("genuine rejected at midpoint threshold")
	}
	if v.Verify("victim", impostor).Pass {
		t.Error("impostor accepted at midpoint threshold")
	}
}

func renderUtterances(t testing.TB, p speech.Profile, digits string, n int, rng *rand.Rand) []*audio.Signal {
	t.Helper()
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*audio.Signal, n)
	for i := range out {
		s, err := synth.SayDigits(digits)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestSpeakerVerifierISV(t *testing.T) {
	bg := buildBackground(t, 5, 102)
	v, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{
		Backend: BackendISV, Components: 16, ISVRank: 4, Seed: 102,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(103)
	victim := speech.RandomProfile("victim", rng)
	other := speech.RandomProfile("other", rng)
	enroll := renderUtterances(t, victim, "246801", 3, rng)
	if err := v.Enroll("victim", [][]*audio.Signal{enroll[:2], enroll[2:]}); err != nil {
		t.Fatal(err)
	}
	genuine := renderUtterances(t, victim, "246801", 1, rng)[0]
	impostor := renderUtterances(t, other, "246801", 1, rng)[0]
	gs, err := v.Score("victim", genuine)
	if err != nil {
		t.Fatal(err)
	}
	is, err := v.Score("victim", impostor)
	if err != nil {
		t.Fatal(err)
	}
	if gs <= is {
		t.Errorf("ISV genuine %v <= impostor %v", gs, is)
	}
}

func TestSpeakerVerifierErrors(t *testing.T) {
	if _, err := TrainSpeakerVerifier(nil, SpeakerVerifierConfig{}); err == nil {
		t.Error("empty background accepted")
	}
	bg := buildBackground(t, 3, 104)
	v, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{Components: 8, Seed: 104})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Enroll("", nil); err == nil {
		t.Error("empty user accepted")
	}
	if err := v.Enroll("u", nil); err == nil {
		t.Error("empty sessions accepted")
	}
	rng := newTestRand(105)
	p := speech.RandomProfile("p", rng)
	utt := renderUtterances(t, p, "12", 1, rng)[0]
	if _, err := v.Score("ghost", utt); err == nil {
		t.Error("unknown user accepted")
	}
	res := v.Verify("ghost", utt)
	if res.Pass {
		t.Error("unknown user passed stage")
	}
	if BackendGMMUBM.String() != "gmm-ubm" || BackendISV.String() != "isv" || Backend(9).String() != "unknown" {
		t.Error("backend labels")
	}
}

func TestBuildSystemAndVerifyCascade(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Distance == nil || sys.Field == nil || sys.Speaker == nil {
		t.Fatal("stages missing")
	}
	// Ablations drop stages.
	abl, err := BuildSystem(SystemConfig{DisableDistance: true, DisableField: true, DisableMagnetic: true})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Distance != nil || abl.Field != nil || abl.Speaker != nil {
		t.Error("ablation did not drop stages")
	}
	if _, err := abl.Verify(&SessionData{}); err == nil {
		t.Error("invalid session accepted")
	}
}

func TestCalibrateThreshold(t *testing.T) {
	bg := buildBackground(t, 4, 400)
	v, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{Components: 8, Seed: 400})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(401)
	victim := speech.RandomProfile("victim", rng)
	enroll := renderUtterances(t, victim, "987654", 3, rng)
	if err := v.Enroll("victim", [][]*audio.Signal{enroll}); err != nil {
		t.Fatal(err)
	}
	cal := renderUtterances(t, victim, "987654", 3, rng)
	if err := v.CalibrateThreshold("victim", cal, 0.05); err != nil {
		t.Fatal(err)
	}
	// All calibration utterances are accepted at the calibrated point.
	for _, utt := range cal {
		if !v.Verify("victim", utt).Pass {
			t.Error("calibration utterance rejected after calibration")
		}
	}
	if err := v.CalibrateThreshold("victim", nil, 0); err == nil {
		t.Error("empty calibration accepted")
	}
	if err := v.CalibrateThreshold("ghost", cal, 0); err == nil {
		t.Error("unknown user calibration accepted")
	}
}
