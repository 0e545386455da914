package server

// Flight-recorder endpoint tests: /debug/decisions, /debug/decisions.jsonl
// and /debug/trace/{id} against real verification traffic, driven through
// the typed client helpers.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"voiceguard/internal/attack"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// spanDepth returns the number of levels in a record's span tree.
func spanDepth(rec *telemetry.TraceRecord) int {
	parent := make(map[string]string, len(rec.Spans))
	for _, sp := range rec.Spans {
		parent[sp.SpanID] = sp.ParentID
	}
	max := 0
	for _, sp := range rec.Spans {
		d, id := 0, sp.SpanID
		for id != "" {
			d++
			id = parent[id]
		}
		if d > max {
			max = d
		}
	}
	return max
}

func TestDebugEndpointsServeRejectionForensics(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 51})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil, WithFlightRecorder(8), WithDecisionEndpoints())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)

	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(51)))
	genuine, err := attack.Genuine(victim, attack.Scenario{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(genuine); err != nil {
		t.Fatal(err)
	}
	recd, err := attack.Record(victim, "472913", 52)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := attack.Replay(recd, device.Catalog()[0], attack.Scenario{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Verify(replay)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Accepted {
		t.Fatal("replay accepted; nothing to examine")
	}
	rejectedID := res.Response.TraceID
	if rejectedID == "" {
		t.Fatal("rejected response carries no trace ID")
	}

	// /debug/decisions: newest first, so the rejection leads, with the
	// failing stage's evidence in the digest.
	var sums []telemetry.TraceSummary
	getJSON(t, ts.URL+DecisionsRoute, &sums)
	if len(sums) != 2 {
		t.Fatalf("got %d decision summaries, want 2", len(sums))
	}
	if sums[0].TraceID != rejectedID || sums[0].Accepted {
		t.Fatalf("newest summary = %+v, want the rejection first", sums[0])
	}
	if sums[0].FailedStage == "" || len(sums[0].Evidence) == 0 {
		t.Fatalf("rejection summary carries no evidence: %+v", sums[0])
	}

	// /debug/trace/{id}: the full span tree, deep enough to replay the
	// decision, with evidence and threshold attrs on the failing stage.
	rec := &telemetry.TraceRecord{}
	getJSON(t, ts.URL+TraceRoute+rejectedID, rec)
	if rec.TraceID != rejectedID || rec.Accepted {
		t.Fatalf("trace = %+v", rec)
	}
	if d := spanDepth(rec); d < 3 {
		t.Fatalf("span tree depth = %d, want ≥ 3", d)
	}
	sp, ok := rec.StageSpan(rec.FailedStage)
	if !ok {
		t.Fatalf("no stage span for failing stage %q", rec.FailedStage)
	}
	var evidence, thresholds int
	for _, a := range sp.Attrs {
		if _, numeric := a.Number(); !numeric {
			continue
		}
		if len(a.Key) > 10 && a.Key[:10] == "threshold_" {
			thresholds++
		} else {
			evidence++
		}
	}
	if evidence == 0 || thresholds == 0 {
		t.Fatalf("failing stage attrs lack evidence (%d) or thresholds (%d): %+v",
			evidence, thresholds, sp.Attrs)
	}

	// /debug/decisions.jsonl: the export reparses into the same traces.
	resp, err := http.Get(ts.URL + DecisionsJSONLRoute)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("JSONL export has %d traces, want 2", len(recs))
	}
	if recs[1].TraceID != rejectedID || len(recs[1].Spans) != len(rec.Spans) {
		t.Fatalf("JSONL trace mismatch: %s/%d spans vs %s/%d",
			recs[1].TraceID, len(recs[1].Spans), rejectedID, len(rec.Spans))
	}

	// Unknown and empty IDs.
	for _, path := range []string{TraceRoute + "no-such-trace", TraceRoute} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d", path, resp.StatusCode)
		}
	}
}

func TestTraceSamplingDisablesRecording(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 53, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil, WithFlightRecorder(4), WithTraceSampling(0), WithDecisionEndpoints())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)

	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(53)))
	genuine, err := attack.Genuine(victim, attack.Scenario{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Verify(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.TraceID == "" {
		t.Error("sampling off must not strip the response trace ID")
	}
	var sums []telemetry.TraceSummary
	getJSON(t, ts.URL+DecisionsRoute, &sums)
	if len(sums) != 0 {
		t.Fatalf("sampling off still recorded %d decisions", len(sums))
	}
}

// TestDecisionEndpointsOptIn pins the security default: without
// WithDecisionEndpoints the flight-recorder routes are not mounted, so
// verdicts and evidence are unreachable over HTTP.
func TestDecisionEndpointsOptIn(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 54, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{DecisionsRoute, DecisionsJSONLRoute, TraceRoute + "some-id"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without opt-in = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCustomTracerWithoutRecorderGetsServerRing: a caller-installed
// tracer with no flight recorder must still feed the server's ring, or
// the decision endpoints would silently serve empty results forever.
func TestCustomTracerWithoutRecorderGetsServerRing(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 55})
	if err != nil {
		t.Fatal(err)
	}
	sys.Tracer = telemetry.NewTracer(telemetry.TracerConfig{}) // no Recorder
	srv, err := New(sys, nil, WithDecisionEndpoints())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(55)))
	genuine, err := attack.Genuine(victim, attack.Scenario{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(ts.URL)
	if _, err := c.Verify(genuine); err != nil {
		t.Fatal(err)
	}
	var sums []telemetry.TraceSummary
	getJSON(t, ts.URL+DecisionsRoute, &sums)
	if len(sums) != 1 {
		t.Fatalf("custom recorder-less tracer recorded %d decisions, want 1", len(sums))
	}
}
