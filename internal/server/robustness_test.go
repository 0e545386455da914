package server

// Load-management tests: per-request deadlines (503), admission control
// (429), graceful drain of in-flight verifications, the abandoned-ready-
// channel fix, and the client retry loop observed end to end through the
// server's flight recorder.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/speech"
)

// genuineSession builds a decodable genuine session for client uploads.
func genuineSession(t testing.TB, seed int64) *core.SessionData {
	t.Helper()
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(seed)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return session
}

// parkedSystem builds a distance-only system, with identity attached as
// stage 4 when non-nil, whose StageHook parks every entry of the stage
// park until release is called (idempotent; test cleanup calls it as a
// backstop). started reports each parked entry.
func parkedSystem(t *testing.T, park core.Stage, identity *core.SpeakerVerifier) (*core.System, chan struct{}, func()) {
	t.Helper()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 41, DisableField: true, DisableMagnetic: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachIdentity(identity)
	started := make(chan struct{}, 64)
	releaseCh := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(releaseCh) }) }
	t.Cleanup(release)
	sys.StageHook = func(ctx context.Context, st core.Stage) {
		if st == park {
			started <- struct{}{}
			<-releaseCh
		}
	}
	return sys, started, release
}

// postID uploads payload to path under the given trace ID.
func postID(t *testing.T, base, path, traceID string, payload []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeEnvelope(t *testing.T, resp *http.Response) protocol.VerifyResponse {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var vr protocol.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return vr
}

// TestVerifyTimeoutReturns503 checks the deadline path end to end: a
// hung pipeline stage under WithVerifyTimeout answers 503 with the
// structured JSON envelope carrying the trace ID, and the attempt lands
// in the deadline_exceeded counter — never in accepted/rejected.
func TestVerifyTimeoutReturns503(t *testing.T) {
	sys, started, _ := parkedSystem(t, core.StageDistance, nil)
	srv, err := New(sys, nil, WithVerifyTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := newHandlerServer(t, srv)

	resp := postID(t, ts, "/verify", "deadline-req-1", genuinePayload(t, 41))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	vr := decodeEnvelope(t, resp)
	if vr.TraceID != "deadline-req-1" {
		t.Errorf("envelope trace_id = %q", vr.TraceID)
	}
	if !strings.Contains(vr.Error, "abandoned") {
		t.Errorf("envelope error = %q, want an honest abandonment message", vr.Error)
	}
	select {
	case <-started:
	default:
		t.Error("stage hook never entered; the deadline was never racing real work")
	}
	st := srv.Stats()
	if st.DeadlineExceeded != 1 {
		t.Errorf("Stats.DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
	if st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("timeout leaked into a verdict counter: %+v", st)
	}
	if st.Requests != 1 {
		t.Errorf("Stats.Requests = %d, want 1", st.Requests)
	}
}

// newHandlerServer serves srv.Handler() on a real listener and returns
// the base URL. httptest.Server is avoided where tests also need
// ListenAndServe/Shutdown semantics; this helper keeps the simple cases
// uniform.
func newHandlerServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return "http://" + ln.Addr().String()
}

// TestMaxInflightShedsExcessVerify fills all 16 admission slots with
// hung verifications and checks that the 17th is shed immediately: 429,
// Retry-After, structured envelope, shed counter — and that the parked
// 16 still complete once released.
func TestMaxInflightShedsExcessVerify(t *testing.T) {
	sys, started, release := parkedSystem(t, core.StageDistance, nil)
	srv, err := New(sys, nil, WithMaxInflightVerifies(16))
	if err != nil {
		t.Fatal(err)
	}
	ts := newHandlerServer(t, srv)
	payload := genuinePayload(t, 42)

	statuses := make(chan int, 16)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postID(t, ts, "/verify", "", payload)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	// Wait until every slot provably reached the pipeline stage, so the
	// 17th request races nothing.
	for i := 0; i < 16; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 16 verifications reached the pipeline", i)
		}
	}

	resp := postID(t, ts, "/verify", "shed-req-1", payload)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("17th concurrent verify: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After hint")
	}
	vr := decodeEnvelope(t, resp)
	if vr.TraceID != "shed-req-1" {
		t.Errorf("shed envelope trace_id = %q", vr.TraceID)
	}
	if !strings.Contains(vr.Error, "overloaded") {
		t.Errorf("shed envelope error = %q", vr.Error)
	}

	release()
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK {
			t.Errorf("parked verify finished with status %d, want 200", code)
		}
	}
	st := srv.Stats()
	if st.Shed != 1 {
		t.Errorf("Stats.Shed = %d, want 1", st.Shed)
	}
	if st.Accepted+st.Rejected != 16 {
		t.Errorf("verdicts = %d, want all 16 parked verifies decided", st.Accepted+st.Rejected)
	}
	if st.Requests != 17 {
		t.Errorf("Stats.Requests = %d, want 17", st.Requests)
	}
}

// TestShutdownDrainsInflightVerify pins graceful-drain semantics: with a
// verification parked in the pipeline, Shutdown closes the listener to
// new work but blocks until the in-flight decision is delivered intact.
func TestShutdownDrainsInflightVerify(t *testing.T) {
	sys, started, release := parkedSystem(t, core.StageDistance, nil)
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

	type verifyResult struct {
		status   int
		accepted bool
		err      error
	}
	verified := make(chan verifyResult, 1)
	payload := genuinePayload(t, 43)
	go func() {
		req, err := http.NewRequest(http.MethodPost, base+"/verify", bytes.NewReader(payload))
		if err != nil {
			verified <- verifyResult{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			verified <- verifyResult{err: err}
			return
		}
		defer resp.Body.Close()
		var vr protocol.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			verified <- verifyResult{err: err}
			return
		}
		verified <- verifyResult{status: resp.StatusCode, accepted: vr.Accepted}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("verification never reached the pipeline")
	}

	shutdownDone := make(chan error, 1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(shutdownCtx) }()

	// Shutdown must not return while the verification is still parked.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a verification still in flight", err)
	case <-time.After(200 * time.Millisecond):
	}

	release()
	select {
	case res := <-verified:
		if res.err != nil {
			t.Fatalf("drained verify failed: %v", res.err)
		}
		if res.status != http.StatusOK || !res.accepted {
			t.Errorf("drained verify: status=%d accepted=%v, want 200/true", res.status, res.accepted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight verify never completed after release")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown = %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight verify drained")
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	// A post-shutdown request fails cleanly at the transport, it does not
	// hang or crash.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestListenAndServeAbandonedReady pins the ready-channel fix: a caller
// that never receives from an unbuffered ready channel must not deadlock
// the serving goroutine before it ever accepts a connection. The bound
// address stays discoverable through Addr.
func TestListenAndServeAbandonedReady(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 44, DisableField: true, DisableMagnetic: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string) // unbuffered, and nobody ever receives
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0", ready) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never bound; ListenAndServe is deadlocked on the abandoned ready channel")
		}
		addr = srv.Addr()
		if addr == "" {
			select {
			case err := <-serveErr:
				t.Fatalf("ListenAndServe returned early: %v", err)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("server bound %s but does not answer: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("ListenAndServe returned %v, want ErrServerClosed", err)
	}
}

// flakyTransport fails the first n round-trips with a transport error,
// then forwards to the default transport.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	attempts int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.attempts++
	fail := f.attempts <= f.failures
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected: connection reset by peer")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientRetryRecordsOneTrace drives the full loop from the issue's
// acceptance list: a client retrying through a flaky transport succeeds,
// every attempt reuses one trace ID, and the server's flight recorder
// holds exactly one trace under that ID.
func TestClientRetryRecordsOneTrace(t *testing.T) {
	srv, ts := testServer(t)

	c := client.New(ts.URL)
	c.HTTP = &http.Client{Transport: &flakyTransport{failures: 2}, Timeout: 30 * time.Second}
	c.Retry = &client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}

	res, err := c.VerifyContext(context.Background(), genuineSession(t, 45))
	if err != nil {
		t.Fatalf("verify through flaky transport: %v", err)
	}
	if !res.Response.Accepted {
		t.Errorf("genuine rejected: %+v", res.Response)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", res.Attempts)
	}
	if res.Response.TraceID != res.TraceID {
		t.Errorf("server echoed trace %q, client sent %q", res.Response.TraceID, res.TraceID)
	}
	if srv.FlightRecorder().Find(res.TraceID) == nil {
		t.Fatalf("trace %q not in the flight recorder", res.TraceID)
	}
	matches := 0
	for _, tr := range srv.FlightRecorder().Snapshot() {
		if tr.TraceID == res.TraceID {
			matches++
		}
	}
	if matches != 1 {
		t.Errorf("flight recorder holds %d traces for %q, want exactly 1", matches, res.TraceID)
	}
}

// TestMethodGuardsReturnJSONEnvelope checks every POST endpoint answers
// a wrong-method request with the same machine-readable envelope the
// rest of the error paths use, never a bare text line.
func TestMethodGuardsReturnJSONEnvelope(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/verify", "/voiceprint", "/enroll"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q, want application/json", path, ct)
		}
		var envelope struct {
			Error   string `json:"error"`
			TraceID string `json:"trace_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Errorf("GET %s: non-JSON 405 body: %v", path, err)
		}
		resp.Body.Close()
		if envelope.Error == "" {
			t.Errorf("GET %s: envelope has no error field", path)
		}
		if envelope.TraceID == "" {
			t.Errorf("GET %s: envelope has no trace_id", path)
		}
	}
}

// TestVoiceprintErrorsCounted checks malformed voiceprint uploads land
// in the voiceprint family's error outcome instead of vanishing, and
// never in the verification Stats.
func TestVoiceprintErrorsCounted(t *testing.T) {
	srv, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/voiceprint", "application/gzip",
		strings.NewReader("not a gzip payload"))
	if err != nil {
		t.Fatal(err)
	}
	vr := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	if vr.Error == "" || vr.TraceID == "" {
		t.Errorf("voiceprint error envelope incomplete: %+v", vr)
	}
	decodeErrs := srv.Registry().Counter(MetricVoiceprintTotal, map[string]string{"outcome": "error"})
	if decodeErrs.Value() != 1 {
		t.Errorf("voiceprint error counter = %d, want 1", decodeErrs.Value())
	}
	if st := srv.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v, want a voiceprint counted nowhere in Stats", st)
	}
}

// TestStalledBodyTimesOut pins the idle deadline on request bodies: a
// client that sends its headers and the first bytes of a body, then
// stalls, gets a 400 once the per-read timeout passes, on every route
// that decodes a body. On /verify the attempt counts under Errors and
// gives its only admission slot back, so the next upload is served,
// though it trickles in for longer than the timeout.
func TestStalledBodyTimesOut(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 41, DisableField: true, DisableMagnetic: true})
	if err != nil {
		t.Fatal(err)
	}
	// /enroll refuses before reading its body without an identity stage;
	// the stalled body never reaches this one.
	sys.Identity = &core.SpeakerVerifier{}
	srv, err := New(sys, nil, WithMaxInflightVerifies(1),
		WithVerifyTimeout(200*time.Millisecond), WithStreamFrameTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := newHandlerServer(t, srv)
	payload := genuinePayload(t, 43)

	for _, path := range []string{"/verify", "/voiceprint", "/enroll"} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: voiceguard\r\nContent-Length: %d\r\n\r\n", path, len(payload))
		if _, err := conn.Write(payload[:10]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			conn.Close()
			t.Fatalf("POST %s with a stalled body: no reply: %v", path, err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with a stalled body: status = %d, want 400", path, resp.StatusCode)
		}
	}
	if n := srv.verifyInflight.Value(); n != 0 {
		t.Errorf("verify in flight = %v after the stalled upload, want 0", n)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v, want the stalled upload as one error", st)
	}

	// The deadline is re-armed on every read: an upload that trickles in
	// for longer than the timeout, never pausing that long, is served.
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /verify HTTP/1.1\r\nHost: voiceguard\r\nContent-Length: %d\r\n\r\n", len(payload))
	const pieces = 8
	for i := 0; i < pieces; i++ {
		if _, err := conn.Write(payload[i*len(payload)/pieces : (i+1)*len(payload)/pieces]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("slow upload after the stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("slow upload after the stalled one: status = %d, want 200", resp.StatusCode)
	}
}
