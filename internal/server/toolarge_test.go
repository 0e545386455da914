package server

// Regression tests: oversized uploads answer 413 with the JSON envelope
// on every decode route and on the streaming listener, and error
// outcomes carry their real latency without ever polluting the
// latency-SLO windows.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
	"voiceguard/internal/stream"
	"voiceguard/internal/telemetry"
)

// gzipBomb builds a small wire payload that inflates past the decoded
// payload cap — the cheap way to exercise the oversized path without a
// 64 MiB upload.
func gzipBomb(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zeros := make([]byte, 1<<20)
	for written := int64(0); written <= protocol.MaxPayloadBytes; written += int64(len(zeros)) {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOversizedUploadsAnswer413(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The enroll route refuses before decoding unless an identity stage
	// exists; attach a small one so its size cap is reachable too.
	roster := speech.NewRoster(2, 901)
	utts, err := roster.Generate(speech.CorpusConfig{Sessions: 1, UtterancesPerSession: 2, Digits: 4})
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := core.TrainSpeakerVerifier(speech.BySpeakerSession(utts), core.SpeakerVerifierConfig{Components: 4, Seed: 901})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachIdentity(verifier)
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	bomb := gzipBomb(t)

	for _, route := range []string{"verify", "enroll", "voiceprint"} {
		resp, err := http.Post(ts.URL+"/"+route, "application/gzip", bytes.NewReader(bomb))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("/%s status = %d, want 413", route, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("/%s Content-Type = %q, want application/json", route, ct)
		}
		resp.Body.Close()
		if got := srv.tooLarge[route].Value(); got != 1 {
			t.Errorf("too-large counter for %s = %d, want 1", route, got)
		}
	}
	// The oversized verify attempt is an error outcome, never a verdict.
	st := srv.Stats()
	if st.Errors == 0 || st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want errors only", st)
	}
}

// TestStreamSessionOverByteBudgetAnswers413 streams full-size audio
// chunks that never close their channel, past the byte budget an HTTP
// upload has (protocol.MaxPayloadBytes). Each frame is under the frame
// cap, so only a per-session budget can stop it: the listener must
// answer 413 and count an error outcome, never a verdict.
func TestStreamSessionOverByteBudgetAnswers413(t *testing.T) {
	// A short frame timeout: a listener without a session budget waits
	// for the next frame, then times out with a 400.
	srv, addr := streamTestServer(t, nil, WithStreamFrameTimeout(5*time.Second))
	conn := dialStream(t, addr)
	hello, err := stream.EncodeHello(stream.Hello{
		TraceID: "stream-too-large", ClaimedUser: "victim", PilotHz: ranging.DefaultPilotHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteFrame(conn, stream.Frame{Type: stream.TypeHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	// The largest audio chunk a frame can carry: 13 header bytes plus
	// eight per sample.
	var chunk bytes.Buffer
	if err := stream.WriteFrame(&chunk, stream.Frame{Type: stream.TypeAudioChunk, Payload: stream.EncodeAudioChunk(stream.AudioChunk{
		Kind: stream.AudioVoice, Rate: 16000, Samples: make([]float64, (stream.DefMaxFrameBytes-13)/8),
	})}); err != nil {
		t.Fatal(err)
	}
	for sent := int64(0); sent <= protocol.MaxPayloadBytes; sent += int64(chunk.Len()) {
		if _, err := conn.Write(chunk.Bytes()); err != nil {
			t.Fatalf("writing chunk after %d bytes: %v", sent, err)
		}
	}
	reply, err := stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	status, _, resp, err := protocol.ErrorFromStreamFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget stream status = %d (%q), want 413", status, resp.Error)
	}
	if resp.TraceID != "stream-too-large" {
		t.Errorf("trace ID = %q", resp.TraceID)
	}
	if got := srv.tooLarge["stream"].Value(); got != 1 {
		t.Errorf("too-large counter for stream = %d, want 1", got)
	}
	st := srv.Stats()
	if st.Requests != 1 || st.Errors != 1 || st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want one errored request", st)
	}
}

func TestRequestTooLargeClassifier(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("decoding: %w", &http.MaxBytesError{Limit: 1}), true},
		{fmt.Errorf("reading: %w", protocol.ErrTooLarge), true},
		{protocol.ErrTooLarge, true},
		{fmt.Errorf("protocol: opening gzip stream: unexpected EOF"), false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := requestTooLarge(tc.err); got != tc.want {
			t.Errorf("requestTooLarge(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestErrorOutcomeLatencyStaysOutOfSLOWindows pins the fail-path
// accounting: a refused request counts an error outcome (with its real
// latency attached to the observation), and the latency-SLO counters —
// which only decided verifies may feed — stay untouched.
func TestErrorOutcomeLatencyStaysOutOfSLOWindows(t *testing.T) {
	clock := newDriftClock()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil,
		WithWindowConfig(telemetry.WindowConfig{Now: clock.Now, LatencyGoodUnder: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/verify", "application/gzip", strings.NewReader("not gzip"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status = %d, want 400", resp.StatusCode)
	}

	outcomes, latOK, latTotal, latSum := srv.Windows().OutcomeTotals(5 * time.Minute)
	if outcomes[telemetry.OutcomeError] != 1 {
		t.Errorf("error outcomes = %d, want 1", outcomes[telemetry.OutcomeError])
	}
	if latTotal != 0 || latOK != 0 || latSum != 0 {
		t.Errorf("error latency leaked into SLO windows: ok=%d total=%d sum=%d", latOK, latTotal, latSum)
	}

	// A decided verify still feeds the latency counters.
	srv.Windows().ObserveVerify(telemetry.OutcomeAccepted, 10*time.Millisecond)
	_, latOK, latTotal, _ = srv.Windows().OutcomeTotals(5 * time.Minute)
	if latTotal != 1 || latOK != 1 {
		t.Errorf("decided verify not counted: ok=%d total=%d", latOK, latTotal)
	}
}
