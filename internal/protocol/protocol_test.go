package protocol

import (
	"bytes"
	"math"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
)

func sampleSession(t testing.TB, seed int64) *VerifyRequest {
	t.Helper()
	victim := speech.RandomProfile("victim", newRand(seed))
	s, err := attack.Genuine(victim, attack.Scenario{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	req, err := FromSession(s, ranging.DefaultPilotHz)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleSession(t, 1)
	enc, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.ClaimedUser != req.ClaimedUser {
		t.Errorf("user = %q", got.ClaimedUser)
	}
	if len(got.Mag) != len(req.Mag) || len(got.Field) != len(req.Field) {
		t.Error("trace lengths changed in transit")
	}
	if got.PilotHz != req.PilotHz {
		t.Error("pilot frequency changed")
	}
}

func TestCompressionHelps(t *testing.T) {
	req := sampleSession(t, 2)
	enc, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	// The raw JSON is much larger than the gzip payload.
	if len(enc) < 1000 {
		t.Errorf("suspiciously small payload %d", len(enc))
	}
}

func TestToSessionRebuildsVerifiableSession(t *testing.T) {
	req := sampleSession(t, 3)
	session, err := ToSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Validate(); err != nil {
		t.Fatalf("rebuilt session invalid: %v", err)
	}
	// The rebuilt gesture supports distance estimation.
	est, err := session.Gesture.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Distance-0.06) > 0.025 {
		t.Errorf("rebuilt distance = %v", est.Distance)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := DecodeRequest(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("bad gzip accepted")
	}
	if _, err := ToSession(nil); err == nil {
		t.Error("nil request accepted")
	}
	// Corrupt voice payload.
	req := sampleSession(t, 4)
	req.VoiceWAV = []byte("!!!not-base64!!!")
	if _, err := ToSession(req); err == nil {
		t.Error("corrupt voice accepted")
	}
	req = sampleSession(t, 5)
	req.CaptureWAV = req.CaptureWAV[:10]
	if _, err := ToSession(req); err == nil {
		t.Error("truncated capture accepted")
	}
}

func TestEnrollRoundTrip(t *testing.T) {
	rng := newRand(30)
	p := speech.RandomProfile("u", rng)
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sessions [][]*audioSignal
	for s := 0; s < 2; s++ {
		var sess []*audioSignal
		for k := 0; k < 2; k++ {
			utt, err := synth.SayDigits("12")
			if err != nil {
				t.Fatal(err)
			}
			sess = append(sess, utt)
		}
		sessions = append(sessions, sess)
	}
	req, err := EnrollFromAudio("u", sessions)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeEnroll(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnroll(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "u" || len(got.Sessions) != 2 {
		t.Errorf("round trip: %+v", got)
	}
	decoded, err := SessionsFromEnroll(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || len(decoded[0]) != 2 {
		t.Fatalf("sessions shape %dx%d", len(decoded), len(decoded[0]))
	}
	if decoded[0][0].Len() != sessions[0][0].Len() {
		t.Error("audio length changed in transit")
	}
	// Corrupt payload rejected.
	got.Sessions[0][0] = []byte("!bad!")
	if _, err := SessionsFromEnroll(got); err == nil {
		t.Error("corrupt enrollment audio accepted")
	}
	if _, err := DecodeEnroll(bytes.NewReader([]byte("x"))); err == nil {
		t.Error("bad gzip accepted")
	}
}

func TestDecisionToResponse(t *testing.T) {
	req := sampleSession(t, 6)
	_ = req
	// Accepted decision.
	d := decisionFixture(true)
	resp := DecisionToResponse(d)
	if !resp.Accepted || resp.FailedStage != "" {
		t.Errorf("resp = %+v", resp)
	}
	// Rejected decision names the stage.
	d = decisionFixture(false)
	resp = DecisionToResponse(d)
	if resp.Accepted || resp.FailedStage == "" {
		t.Errorf("resp = %+v", resp)
	}
	if len(resp.Stages) != len(d.Stages) {
		t.Error("stage count mismatch")
	}
}
