package main

import (
	"math/rand"
	"strings"
	"testing"

	"voiceguard/internal/evidence/rebuild"
	"voiceguard/internal/speech"
)

func TestProvenanceTrainsASV(t *testing.T) {
	p, err := provenance(config{seed: 1, withASV: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.ASV == nil || p.ASV.Roster != 8 {
		t.Fatalf("ASV recipe = %+v", p.ASV)
	}
	v, err := rebuild.TrainASV(p.ASV)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("nil verifier")
	}
}

func TestProvenanceEnrollSpec(t *testing.T) {
	p, err := provenance(config{seed: 2, withASV: true, enrollSpec: "alice:seed=3,bob:seed=9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ASV.Enroll) != 2 {
		t.Fatalf("enroll entries = %+v", p.ASV.Enroll)
	}
	v, err := rebuild.TrainASV(p.ASV)
	if err != nil {
		t.Fatal(err)
	}
	// Enrolled users score their own voices: regenerate each enrollment
	// voice with the same one-source draw rebuild.TrainASV used.
	for _, tc := range []struct {
		name string
		seed int64
	}{{"alice", 3}, {"bob", 9}} {
		rng := rand.New(rand.NewSource(tc.seed))
		profile := speech.RandomProfile(tc.name, rng)
		synth, err := speech.NewSynthesizer(profile, rng)
		if err != nil {
			t.Fatal(err)
		}
		utt, err := synth.SayDigits("472913")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Score(tc.name, utt); err != nil {
			t.Errorf("%s not enrolled: %v", tc.name, err)
		}
	}
}

func TestProvenanceBadSpec(t *testing.T) {
	for _, spec := range []string{"missingseed", "x:seed=abc"} {
		if _, err := provenance(config{withASV: true, enrollSpec: spec}); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if _, err := provenance(config{enrollSpec: "alice:seed=3"}); err == nil ||
		!strings.Contains(err.Error(), "-asv") {
		t.Errorf("-enroll without -asv accepted: %v", err)
	}
}
