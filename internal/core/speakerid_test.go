package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/speech"
)

// TestEnrollWhileVerifyingIsRaceFree enrolls users while another
// goroutine verifies, as concurrent POST /enroll and /verify do; under
// -race it fails unless the user maps are synchronized.
func TestEnrollWhileVerifyingIsRaceFree(t *testing.T) {
	for _, backend := range []Backend{BackendGMMUBM, BackendISV} {
		v, err := TrainSpeakerVerifier(buildBackground(t, 2, 910),
			SpeakerVerifierConfig{Backend: backend, Components: 4, ISVRank: 2, Seed: 910})
		if err != nil {
			t.Fatal(err)
		}
		rng := newTestRand(911)
		utts := renderUtterances(t, speech.RandomProfile("victim", rng), "4242", 2, rng)
		enroll := [][]*audio.Signal{utts[:1]}
		if err := v.Enroll("victim", enroll); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := v.Enroll(fmt.Sprintf("user-%d", i), enroll); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 3; i++ {
			if _, err := v.Score("victim", utts[1]); err != nil {
				t.Error(err)
			}
		}
		wg.Wait()
		if _, err := v.ModelDigests(); err != nil {
			t.Error(err)
		}
	}
}

// TestFastPathDigestFollowsReenroll pins a user's "asv/user/" digest and
// exact score to the model enrolled last. The digest is stored with the
// enrollment, so a re-enrollment must replace both at once: each must
// equal those of a user enrolled from the new utterances alone.
func TestFastPathDigestFollowsReenroll(t *testing.T) {
	for _, backend := range []Backend{BackendGMMUBM, BackendISV} {
		v, err := TrainSpeakerVerifier(buildBackground(t, 2, 910),
			SpeakerVerifierConfig{Backend: backend, Components: 4, ISVRank: 2, Seed: 910})
		if err != nil {
			t.Fatal(err)
		}
		rng := newTestRand(911)
		utts := renderUtterances(t, speech.RandomProfile("victim", rng), "4242", 2, rng)
		if err := v.Enroll("victim", [][]*audio.Signal{utts[:1]}); err != nil {
			t.Fatal(err)
		}
		before, err := v.ModelDigests()
		if err != nil {
			t.Fatal(err)
		}
		oldScore, err := v.Score("victim", utts[0])
		if err != nil {
			t.Fatal(err)
		}

		reenroll := [][]*audio.Signal{utts[1:]}
		for _, user := range []string{"victim", "fresh"} {
			if err := v.Enroll(user, reenroll); err != nil {
				t.Fatal(err)
			}
		}
		after, err := v.ModelDigests()
		if err != nil {
			t.Fatal(err)
		}
		if after["asv/user/victim"] == before["asv/user/victim"] {
			t.Errorf("%v: asv/user/victim digest did not change on re-enrollment", backend)
		}
		if after["asv/user/victim"] != after["asv/user/fresh"] {
			t.Errorf("%v: re-enrolled digest %.12s, want the new model's %.12s",
				backend, after["asv/user/victim"], after["asv/user/fresh"])
		}
		got, err := v.Score("victim", utts[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.Score("fresh", utts[0])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || got == oldScore {
			t.Errorf("%v: re-enrolled score %v, want the new model's %v (old model scored %v)",
				backend, got, want, oldScore)
		}
	}
}
