package server

// End-to-end coverage of the fast ASV serving path: concurrent verifies
// score bit-for-bit like a serial one and share one compiled speaker
// model, and the model-cache metric families land on /metrics in
// strict-parser-conformant shape.

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/speech"
)

// asvFixtureSeed drives every random choice in the fast-ASV fixtures so
// two independently built servers hold bit-identical models.
const asvFixtureSeed = 940

// trainASVVerifier trains a deterministic GMM-UBM verifier (16
// components, so the default shortlist truly truncates) and enrolls one
// victim; calling it twice yields bit-identical state.
func trainASVVerifier(t *testing.T) (*core.SpeakerVerifier, speech.Profile) {
	t.Helper()
	roster := speech.NewRoster(4, asvFixtureSeed)
	utts, err := roster.Generate(speech.CorpusConfig{Sessions: 2, UtterancesPerSession: 2, Digits: 6})
	if err != nil {
		t.Fatal(err)
	}
	bg := make(map[string][][]*audio.Signal)
	for spk, us := range speech.BySpeaker(utts) {
		perSession := map[int][]*audio.Signal{}
		maxSess := 0
		for _, u := range us {
			perSession[u.Session] = append(perSession[u.Session], u.Audio)
			if u.Session > maxSess {
				maxSess = u.Session
			}
		}
		for s := 0; s <= maxSess; s++ {
			bg[spk] = append(bg[spk], perSession[s])
		}
	}
	verifier, err := core.TrainSpeakerVerifier(bg, core.SpeakerVerifierConfig{
		Components: 16, Seed: asvFixtureSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(asvFixtureSeed + 1))
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
	verifier.Threshold = -100 // stage 4 diagnostics matter here, not verdicts
	return verifier, victim
}

// fastServer wraps a freshly trained verifier in a server built with the
// given fast-path options.
func fastServer(t *testing.T, opts ...Option) (*httptest.Server, speech.Profile) {
	t.Helper()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	verifier, victim := trainASVVerifier(t)
	sys.AttachIdentity(verifier)
	srv, err := New(sys, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts, victim
}

// speakerIDScore digs the identity-stage score out of a verify response.
func speakerIDScore(t *testing.T, res *client.Result) float64 {
	t.Helper()
	for _, st := range res.Response.Stages {
		if strings.Contains(st.Stage, "speaker") {
			return st.Score
		}
	}
	t.Fatalf("no speaker-id stage in response: %+v", res.Response.Stages)
	return 0
}

// TestConcurrentFastVerifyMatchesSerialBitExact runs concurrent
// verifies through one fast-path server: each stage-4 score must equal a
// serial verify's bit for bit, and the one enrolled model compiles once.
func TestConcurrentFastVerifyMatchesSerialBitExact(t *testing.T) {
	ts, victim := fastServer(t, WithASVFastPath())
	genuine, err := attack.Genuine(victim, attack.Scenario{
		ClaimedUser: "carol", Passphrase: "271828", Seed: asvFixtureSeed + 2,
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
			scores[i] = speakerIDScore(t, res)
		}(i)
	}
	wg.Wait()

	// Eight scorings of one enrolled model are one compile plus cache
	// hits; the cache compiles single-flight under its lock.
	m := scrapeMetrics(t, ts.URL)
	if miss := m[MetricASVModelCacheEvents+`{event="miss"}`]; miss != 1 {
		t.Errorf("model-cache misses = %v, want exactly 1 (one enrolled model)", miss)
	}
	if hits := m[MetricASVModelCacheEvents+`{event="hit"}`]; hits != concurrency-1 {
		t.Errorf("model-cache hits = %v, want %d", hits, concurrency-1)
	}
	if b := m[MetricASVModelCacheBytes]; b <= 0 {
		t.Errorf("model-cache resident bytes = %v, want > 0", b)
	}

	serial, err := c.Verify(genuine)
	if err != nil {
		t.Fatal(err)
	}
	want := speakerIDScore(t, serial)
	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent verify %d: %v", i, errs[i])
		}
		if scores[i] != want {
			t.Errorf("concurrent verify %d score = %v, want serial %v (bit-exact)", i, scores[i], want)
		}
	}
}

// TestASVMetricsConformance pins the serving-path metric families —
// model-cache counters and resident-bytes gauge — to the strict
// Prometheus text-format contract alongside the rest of the exposition.
func TestASVMetricsConformance(t *testing.T) {
	ts, victim := fastServer(t, WithASVFastPath(), WithASVModelCache(4))
	genuine, err := attack.Genuine(victim, attack.Scenario{
		ClaimedUser: "carol", Passphrase: "271828", Seed: asvFixtureSeed + 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.New(ts.URL).Verify(genuine); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series := parseExposition(t, resp.Body, false)
	found := map[string]bool{}
	for _, s := range series {
		found[s.name] = true
	}
	for _, name := range []string{
		MetricASVModelCacheEvents,
		MetricASVModelCacheBytes,
	} {
		if !found[name] {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
}
