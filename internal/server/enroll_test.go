package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/speech"
)

// asvServer builds a server with the identity stage attached.
func asvServer(t *testing.T) (*httptest.Server, *core.SpeakerVerifier) {
	t.Helper()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	verifier := trainedVerifier(t)
	sys.AttachIdentity(verifier)
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, verifier
}

// trainedVerifier trains a small identity back-end with no users.
func trainedVerifier(t *testing.T) *core.SpeakerVerifier {
	t.Helper()
	roster := speech.NewRoster(4, 900)
	utts, err := roster.Generate(speech.CorpusConfig{Sessions: 2, UtterancesPerSession: 2, Digits: 6})
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := core.TrainSpeakerVerifier(speech.BySpeakerSession(utts), core.SpeakerVerifierConfig{Components: 8, Seed: 900})
	if err != nil {
		t.Fatal(err)
	}
	return verifier
}

func TestEnrollEndToEnd(t *testing.T) {
	ts, verifier := asvServer(t)
	rng := rand.New(rand.NewSource(901))
	victim := speech.RandomProfile("alice", rng)
	synth, err := speech.NewSynthesizer(victim, rng)
	if err != nil {
		t.Fatal(err)
	}
	var session []*audio.Signal
	for k := 0; k < 3; k++ {
		utt, err := synth.SayDigits("314159")
		if err != nil {
			t.Fatal(err)
		}
		session = append(session, utt)
	}
	c := client.New(ts.URL)
	if err := c.Enroll("alice", [][]*audio.Signal{session}); err != nil {
		t.Fatal(err)
	}
	// The enrolled user scores well against their own voice.
	test, err := synth.SayDigits("314159")
	if err != nil {
		t.Fatal(err)
	}
	score, err := verifier.Score("alice", test)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Errorf("enrolled genuine score = %v, want positive LLR", score)
	}
	// And a full verification session including stage 4 succeeds.
	verifier.Threshold = score - 1
	genuine, err := attack.Genuine(victim, attack.Scenario{
		ClaimedUser: "alice", Passphrase: "314159", Seed: 902,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Verify(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Response.Accepted {
		t.Errorf("full four-stage verification rejected: %+v", res.Response)
	}
	if len(res.Response.Stages) != 4 {
		t.Errorf("stages = %d, want 4", len(res.Response.Stages))
	}
}

// TestConcurrentASVVerifyMatchesSerialBitExact runs concurrent verifies
// through one ASV server: each stage-4 score must equal a serial
// verify's bit for bit. Under -race it covers the exact scorer's pooled
// frame scratch and the FFT plan pools that concurrent verifies share.
func TestConcurrentASVVerifyMatchesSerialBitExact(t *testing.T) {
	ts, verifier := asvServer(t)
	rng := rand.New(rand.NewSource(940))
	victim := speech.RandomProfile("carol", rng)
	synth, err := speech.NewSynthesizer(victim, rng)
	if err != nil {
		t.Fatal(err)
	}
	var session []*audio.Signal
	for k := 0; k < 3; k++ {
		utt, err := synth.SayDigits("271828")
		if err != nil {
			t.Fatal(err)
		}
		session = append(session, utt)
	}
	if err := verifier.Enroll("carol", [][]*audio.Signal{session}); err != nil {
		t.Fatal(err)
	}
	verifier.Threshold = -100 // stage 4 scores matter here, not verdicts
	genuine, err := attack.Genuine(victim, attack.Scenario{
		ClaimedUser: "carol", Passphrase: "271828", Seed: 942,
	})
	if err != nil {
		t.Fatal(err)
	}

	const concurrency = 8
	scores := make([]float64, concurrency)
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	c := client.New(ts.URL)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Verify(genuine)
			if err != nil {
				errs[i] = err
				return
			}
			scores[i], errs[i] = speakerIDScore(res)
		}(i)
	}
	wg.Wait()

	serial, err := c.Verify(genuine)
	if err != nil {
		t.Fatal(err)
	}
	want, err := speakerIDScore(serial)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent verify %d: %v", i, errs[i])
		}
		if math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Errorf("concurrent verify %d score = %v, want serial %v (bit-exact)", i, scores[i], want)
		}
	}
}

// speakerIDScore digs the identity-stage score out of a verify response.
func speakerIDScore(res *client.Result) (float64, error) {
	for _, st := range res.Response.Stages {
		if st.Stage == core.StageSpeakerID.String() {
			return st.Score, nil
		}
	}
	return 0, fmt.Errorf("no speaker-id stage in response: %+v", res.Response.Stages)
}

func TestEnrollWithoutASV(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rng := rand.New(rand.NewSource(903))
	p := speech.RandomProfile("bob", rng)
	synth, err := speech.NewSynthesizer(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.SayDigits("111111")
	if err != nil {
		t.Fatal(err)
	}
	err = client.New(ts.URL).Enroll("bob", [][]*audio.Signal{{utt}})
	if err == nil {
		t.Error("enrollment without ASV stage accepted")
	}
}

func TestEnrollRejectsGarbage(t *testing.T) {
	ts, _ := asvServer(t)
	resp, err := http.Post(ts.URL+"/enroll", "application/gzip", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/enroll")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", getResp.StatusCode)
	}
}
