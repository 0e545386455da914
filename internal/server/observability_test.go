package server

// Observability tests: /metrics exposition after real traffic, trace-ID
// propagation through response and log line, the JSON readiness probe,
// graceful shutdown, and counter/histogram consistency under concurrent
// load (run with -race).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
)

// scrapeMetrics fetches /metrics and parses the exposition into a
// series → value map (HELP/TYPE lines skipped).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Strip a trailing OpenMetrics exemplar (` # {...} value ts`) so
		// the value parse below sees the series value.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// genuinePayload builds one encoded genuine session upload.
func genuinePayload(t *testing.T, seed int64) []byte {
	t.Helper()
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(seed)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestMetricsEndpointAfterTraffic(t *testing.T) {
	srv, ts := testServer(t)

	// Drive one genuine accept, one replay reject, one garbage error.
	c := client.New(ts.URL)
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(21)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(session); err != nil {
		t.Fatal(err)
	}
	rec, err := attack.Record(victim, "472913", 22)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := attack.Replay(rec, device.Catalog()[0], attack.Scenario{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(replay); err != nil {
		t.Fatal(err)
	}
	if code := postVerify(t, ts.URL, []byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("garbage status = %d", code)
	}

	m := scrapeMetrics(t, ts.URL)

	// One histogram series per paper stage, registered even before any
	// sample lands in it.
	for _, stage := range []string{"distance", "soundfield", "loudspeaker", "identity"} {
		key := fmt.Sprintf(`voiceguard_stage_latency_seconds_count{stage=%q}`, stage)
		if _, ok := m[key]; !ok {
			t.Errorf("missing stage series %s", key)
		}
	}
	// No ASV attached: stages 1–3 saw the two decided sessions, the
	// identity stage none.
	st := srv.Stats()
	decided := float64(st.Accepted + st.Rejected)
	for _, stage := range []string{"distance"} {
		key := fmt.Sprintf(`voiceguard_stage_latency_seconds_count{stage=%q}`, stage)
		if m[key] != decided {
			t.Errorf("%s = %v, want %v", key, m[key], decided)
		}
	}
	if got := m[`voiceguard_stage_latency_seconds_count{stage="identity"}`]; got != 0 {
		t.Errorf("identity stage count = %v, want 0", got)
	}
	// Outcome counters match /stats.
	if got := m[`voiceguard_verify_total{outcome="accepted"}`]; got != float64(st.Accepted) {
		t.Errorf("accepted = %v, stats %d", got, st.Accepted)
	}
	if got := m[`voiceguard_verify_total{outcome="rejected"}`]; got != float64(st.Rejected) {
		t.Errorf("rejected = %v, stats %d", got, st.Rejected)
	}
	if got := m[`voiceguard_verify_total{outcome="error"}`]; got != float64(st.Errors) {
		t.Errorf("error = %v, stats %d", got, st.Errors)
	}
	// Pipeline histogram counted the decided sessions.
	if got := m["voiceguard_pipeline_latency_seconds_count"]; got != decided {
		t.Errorf("pipeline count = %v, want %v", got, decided)
	}
	// Per-route HTTP metrics counted every /verify call (the /metrics
	// scrape itself is on a different route).
	if got := m[`voiceguard_http_request_duration_seconds_count{route="/verify"}`]; got != float64(st.Requests) {
		t.Errorf("http duration count = %v, want %d", got, st.Requests)
	}
	if got := m[`voiceguard_http_requests_total{code="200",route="/verify"}`]; got != decided {
		t.Errorf("http 200 count = %v, want %v", got, decided)
	}
	if got := m[`voiceguard_http_requests_total{code="400",route="/verify"}`]; got != 1 {
		t.Errorf("http 400 count = %v, want 1", got)
	}
}

func TestTraceIDInResponseHeaderAndLog(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &logBuf, mu: &logMu}, nil))
	srv, err := New(sys, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	res, err := client.New(ts.URL).Verify(mustGenuine(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("client surfaced no trace ID")
	}
	if res.Response.TraceID != res.TraceID {
		t.Errorf("response trace_id = %q, header trace = %q", res.Response.TraceID, res.TraceID)
	}
	if res.Response.ElapsedUS <= 0 {
		t.Error("response missing total elapsed_us")
	}
	if res.ServerElapsed <= 0 {
		t.Error("client did not surface server elapsed")
	}
	if len(res.Response.Stages) == 0 {
		t.Fatal("no stage diagnostics")
	}
	for i, st := range res.Response.Stages {
		if st.ElapsedUS <= 0 {
			t.Errorf("stage %d (%s) missing elapsed_us", i, st.Stage)
		}
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "trace_id="+res.TraceID) {
		t.Errorf("structured log missing trace_id=%s:\n%s", res.TraceID, logged)
	}
	if !strings.Contains(logged, "stage_distance=") {
		t.Errorf("structured log missing per-stage timing:\n%s", logged)
	}
}

// syncWriter serializes writes from concurrent request handlers.
type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func mustGenuine(t *testing.T, seed int64) *core.SessionData {
	t.Helper()
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(seed)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return session
}

func TestClientRequestIDPropagated(t *testing.T) {
	// A caller-supplied X-Request-ID must come back on response, body and
	// decision rather than being replaced.
	_, ts := testServer(t)
	payload := genuinePayload(t, 33)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/verify", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "caller-chosen-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "caller-chosen-id-1" {
		t.Errorf("echoed ID = %q", got)
	}
	var vr protocol.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.TraceID != "caller-chosen-id-1" {
		t.Errorf("body trace_id = %q", vr.TraceID)
	}
}

func TestHealthzReportsConfiguredStages(t *testing.T) {
	// Distance disabled: the probe must say so.
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1, DisableDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status = %q", hr.Status)
	}
	want := map[string]bool{"distance": false, "soundfield": true, "loudspeaker": true, "identity": false}
	for stage, expect := range want {
		if hr.Stages[stage] != expect {
			t.Errorf("stage %s = %v, want %v", stage, hr.Stages[stage], expect)
		}
	}
}

func TestReadOnlyEndpointsRejectNonGET(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestMetricsEndpointCanBeDisabled(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil, WithMetricsEndpoint(false))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled /metrics = %d, want 404", resp.StatusCode)
	}
}

func TestPprofOptional(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := New(sys, nil, WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(plain.Handler())
	t.Cleanup(tsPlain.Close)
	tsProf := httptest.NewServer(profiled.Handler())
	t.Cleanup(tsProf.Close)

	resp, err := http.Get(tsPlain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(tsProf.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in = %d, want 200", resp.StatusCode)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// The server answers while up.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// Further connections are refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
	// Shutdown with nothing running is a no-op.
	idle, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Shutdown(context.Background()); err != nil {
		t.Errorf("idle shutdown: %v", err)
	}
}

// TestConcurrentLoadCounterConsistency is the satellite load test: 8
// workers × 50 requests, a mix of valid sessions and malformed uploads.
// Counters must satisfy Requests == Accepted+Rejected+Errors, the
// /verify route histogram must have counted every request, and every
// request must have received a unique trace ID.
func TestConcurrentLoadCounterConsistency(t *testing.T) {
	srv, ts := testServer(t)
	valid := genuinePayload(t, 41)

	const workers = 8
	const perWorker = 50
	const validPerWorker = 2 // full-pipeline verifies are expensive; keep wall time sane

	type outcome struct {
		traceID string
		status  int
	}
	results := make(chan outcome, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				payload := []byte(fmt.Sprintf("garbage-%d-%d", w, i))
				if i < validPerWorker {
					payload = valid
				}
				resp, err := http.Post(ts.URL+"/verify", "application/gzip", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				results <- outcome{traceID: resp.Header.Get(RequestIDHeader), status: resp.StatusCode}
			}
		}(w)
	}
	wg.Wait()
	close(results)

	const total = workers * perWorker
	seen := make(map[string]bool)
	n := 0
	for out := range results {
		n++
		if out.traceID == "" {
			t.Error("response missing X-Request-ID")
			continue
		}
		if seen[out.traceID] {
			t.Errorf("trace ID %q served twice", out.traceID)
		}
		seen[out.traceID] = true
	}
	if n != total {
		t.Fatalf("completed %d requests, want %d", n, total)
	}

	st := srv.Stats()
	if st.Requests != st.Accepted+st.Rejected+st.Errors {
		t.Errorf("counter invariant broken: %+v", st)
	}
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if got := st.Accepted + st.Rejected; got != workers*validPerWorker {
		t.Errorf("decided = %d, want %d", got, workers*validPerWorker)
	}
	if st.Errors != total-workers*validPerWorker {
		t.Errorf("errors = %d, want %d", st.Errors, total-workers*validPerWorker)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m[`voiceguard_http_request_duration_seconds_count{route="/verify"}`]; got != float64(total) {
		t.Errorf("route histogram count = %v, want %d", got, total)
	}
	var statusSum float64
	for key, v := range m {
		if strings.HasPrefix(key, `voiceguard_http_requests_total{`) && strings.Contains(key, `route="/verify"`) {
			statusSum += v
		}
	}
	if statusSum != float64(total) {
		t.Errorf("status counter sum = %v, want %d", statusSum, total)
	}
	if got := m["voiceguard_pipeline_latency_seconds_count"]; got != float64(workers*validPerWorker) {
		t.Errorf("pipeline histogram count = %v, want %d", got, workers*validPerWorker)
	}
}

// TestRouteLabelsBounded sends one request to every route Handler mounts
// with all debug surfaces on, plus an unknown path, and checks that each
// lands under its own route label on the HTTP metrics. Trace and evidence
// IDs fold into their route prefix, so a scan of random IDs cannot grow
// the label set, and only the unknown path counts as "other".
func TestRouteLabelsBounded(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 53, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil, WithDecisionEndpoints(), WithEvidenceEndpoint(), WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	id := make([]byte, 32)
	rand.New(rand.NewSource(64)).Read(id)
	routes := []struct{ path, route string }{
		{"/verify", "/verify"},
		{"/voiceprint", "/voiceprint"},
		{"/enroll", "/enroll"},
		{"/healthz", "/healthz"},
		{"/stats", "/stats"},
		{"/metrics", "/metrics"},
		{DecisionsRoute, DecisionsRoute},
		{DecisionsJSONLRoute, DecisionsJSONLRoute},
		{TraceRoute + "no-such-trace", TraceRoute},
		{EvidenceRoute + fmt.Sprintf("%x", id), EvidenceRoute},
		{DriftRoute, DriftRoute},
		{DriftPinRoute, DriftPinRoute},
		{"/debug/pprof/cmdline", "/debug/pprof/"},
		{"/no/such/path", "other"},
	}
	for _, tc := range routes {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	const prefix = `voiceguard_http_request_duration_seconds_count{route="`
	m := scrapeMetrics(t, ts.URL)
	for _, tc := range routes {
		if got := m[prefix+tc.route+`"}`]; got != 1 {
			t.Errorf("GET %s: route %q counted %v times, want 1", tc.path, tc.route, got)
		}
	}
	var labels int
	for key := range m {
		if strings.HasPrefix(key, prefix) {
			labels++
		}
	}
	if labels != len(routes) {
		t.Errorf("%d route labels for %d distinct routes", labels, len(routes))
	}
}
