package core

import (
	"fmt"
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
