package client

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/server"
	"voiceguard/internal/speech"
)

func testServerURL(t *testing.T) string {
	t.Helper()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestVerifyRoundTrip(t *testing.T) {
	url := testServerURL(t)
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(1)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(url)
	res, err := c.Verify(session)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Response.Accepted {
		t.Errorf("genuine rejected: %+v", res.Response)
	}
	if res.PayloadBytes < 1000 {
		t.Errorf("payload = %d bytes", res.PayloadBytes)
	}
}

func TestVerifyVoiceprintRoundTrip(t *testing.T) {
	url := testServerURL(t)
	rng := rand.New(rand.NewSource(2))
	p := speech.RandomProfile("u", rng)
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	voice, err := synth.SayDigits("123456")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(url).VerifyVoiceprint("u", voice)
	if err != nil {
		t.Fatal(err)
	}
	// No ASV attached server-side: transport-path acceptance.
	if !res.Response.Accepted {
		t.Errorf("voiceprint baseline rejected: %+v", res.Response)
	}
}

func TestVerifyInvalidSession(t *testing.T) {
	url := testServerURL(t)
	c := New(url)
	if _, err := c.Verify(&core.SessionData{}); err == nil {
		t.Error("invalid session accepted client-side")
	}
}

func TestVerifyServerDown(t *testing.T) {
	c := New("http://127.0.0.1:1") // nothing listens here
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(3)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(session); err == nil {
		t.Error("expected transport error")
	}
}

func TestVoiceprintServerDown(t *testing.T) {
	c := New("http://127.0.0.1:1")
	rng := rand.New(rand.NewSource(9))
	p := speech.RandomProfile("u", rng)
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	voice, err := synth.SayDigits("22")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyVoiceprint("u", voice); err == nil {
		t.Error("expected transport error")
	}
	if err := c.Enroll("u", nil); err == nil {
		t.Error("expected enrollment transport error")
	}
}

func TestNilHTTPClientGetsDefault(t *testing.T) {
	url := testServerURL(t)
	c := &Client{BaseURL: url} // HTTP nil
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(4)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(session); err != nil {
		t.Fatalf("nil-HTTP verify: %v", err)
	}
	synth, err := speech.NewSynthesizer(victim, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	voice, err := synth.SayDigits("11")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyVoiceprint("victim", voice); err != nil {
		t.Fatalf("nil-HTTP voiceprint: %v", err)
	}
}
