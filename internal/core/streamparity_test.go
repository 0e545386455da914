package core_test

import (
	"context"
	"math"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/speech"
)

// TestStreamVerifierMatchesBatchVerdictBitForBit feeds genuine and
// attack sessions through the four-stage system twice: whole, through
// VerifyContext, and channel by channel, through a StreamVerifier, in
// two frame orders. The verdicts must always match. A stream that
// decided at Finish ran every stage on the complete session, so its
// stage results must match the batch ones bit for bit; one that decided
// early may have rejected at a different stage, or from a magnetometer
// prefix, so only its verdict is compared. With the magnetometer
// closing last, the distance and loudspeaker stages are admitted
// together and overlap, as VerifyContext's stages do.
func TestStreamVerifierMatchesBatchVerdictBitForBit(t *testing.T) {
	const passphrase = "135792"
	roster := speech.NewDistinctRoster(2, 200, 1.2).Profiles()
	victim, impostor := roster[0], roster[1]
	sys := core.FullSystemForTest(t, victim, passphrase, 200)
	sc := attack.Scenario{Passphrase: passphrase, ClaimedUser: victim.Name, Seed: 201}
	rec, err := attack.Record(victim, passphrase, 202)
	if err != nil {
		t.Fatal(err)
	}
	spk := device.Catalog()[0]
	tube := &soundfield.Tube{OpeningRadius: 0.012, Length: 0.3, LevelAt1m: 62}

	cases := []struct {
		name    string
		session func() (*core.SessionData, error)
		accept  bool
	}{
		{"genuine", func() (*core.SessionData, error) { return attack.Genuine(victim, sc) }, true},
		{"replay", func() (*core.SessionData, error) { return attack.Replay(rec, spk, sc) }, false},
		{"shielded replay", func() (*core.SessionData, error) { return attack.ShieldedReplay(rec, spk, sc) }, false},
		{"imitation", func() (*core.SessionData, error) {
			return attack.Imitation(impostor, victim, speech.ImitatorProfessional, sc)
		}, false},
		{"sound tube", func() (*core.SessionData, error) { return attack.SoundTube(rec, spk, tube, sc) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			session, err := tc.session()
			if err != nil {
				t.Fatal(err)
			}
			batch, err := sys.VerifyContext(context.Background(), "batch-test", core.RebuiltSessionForTest(t, session))
			if err != nil {
				t.Fatal(err)
			}
			if batch.Accepted != tc.accept {
				t.Fatalf("batch verdict %v, want accepted=%v", batch.String(), tc.accept)
			}
			for _, magLast := range []bool{false, true} {
				streamed, early, _ := core.FeedStreamForTest(t, sys, session, 64, nil, magLast)
				if streamed.Accepted != batch.Accepted {
					t.Fatalf("magLast=%v: verdicts differ: batch=%v stream=%v", magLast, batch.String(), streamed.String())
				}
				if early {
					if streamed.Accepted {
						t.Fatalf("magLast=%v: ACCEPT before Finish", magLast)
					}
					continue
				}
				if streamed.FailedStage != batch.FailedStage || len(streamed.Stages) != len(batch.Stages) {
					t.Fatalf("magLast=%v: decisions differ: batch=%v with %d stages, stream=%v with %d",
						magLast, batch.String(), len(batch.Stages), streamed.String(), len(streamed.Stages))
				}
				for i := range batch.Stages {
					b, s := batch.Stages[i], streamed.Stages[i]
					if b.Stage != s.Stage || b.Pass != s.Pass {
						t.Errorf("magLast=%v: stage %d: batch=%v/%v stream=%v/%v", magLast, i, b.Stage, b.Pass, s.Stage, s.Pass)
					}
					if math.Float64bits(b.Score) != math.Float64bits(s.Score) {
						t.Errorf("magLast=%v: stage %v score bits differ: batch=%x stream=%x",
							magLast, b.Stage, math.Float64bits(b.Score), math.Float64bits(s.Score))
					}
					if b.Detail != s.Detail {
						t.Errorf("magLast=%v: stage %v detail differs: %q vs %q", magLast, b.Stage, b.Detail, s.Detail)
					}
				}
			}
		})
	}
}
