package server

// Streaming listener tests: lifecycle, version negotiation, admission
// control, digest validation, deadline mapping, and the early-exit path
// observed end to end over a real TCP connection.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/speech"
	"voiceguard/internal/stream"
)

// streamTestServer starts a server with a live streaming listener and
// returns it with the bound address. Shutdown runs in cleanup and the
// serve loop must exit with http.ErrServerClosed.
func streamTestServer(t testing.TB, sys *core.System, opts ...Option) (*Server, string) {
	t.Helper()
	if sys == nil {
		var err error
		sys, err = core.BuildSystem(core.SystemConfig{FieldSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(sys, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServeStream("127.0.0.1:0", ready) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("stream listener never reported ready")
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve loop exited with %v, want ErrServerClosed", err)
		}
	})
	if got := srv.StreamAddr(); got != addr {
		t.Fatalf("StreamAddr() = %q, ready reported %q", got, addr)
	}
	return srv, addr
}

// dialStream connects and completes the protocol handshake.
func dialStream(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := stream.WriteHandshake(conn, stream.Version); err != nil {
		t.Fatal(err)
	}
	ver, err := stream.ReadHandshake(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ver != stream.Version {
		t.Fatalf("negotiated version %d, want %d", ver, stream.Version)
	}
	return conn
}

// sessionFrames slices a session into its streaming frame sequence.
func sessionFrames(t testing.TB, traceID string, session *core.SessionData) []stream.Frame {
	t.Helper()
	req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := protocol.StreamFrames(traceID, req)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// streamSession writes every frame then reads the server's reply. The
// server drains late frames after an early decision, so writing the full
// sequence before reading is always safe.
func streamSession(t *testing.T, addr, traceID string, session *core.SessionData) stream.Frame {
	t.Helper()
	conn := dialStream(t, addr)
	for _, f := range sessionFrames(t, traceID, session) {
		if err := stream.WriteFrame(conn, f); err != nil {
			t.Fatalf("writing %v frame: %v", f.Type, err)
		}
	}
	reply, err := stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	return reply
}

func replaySession(t *testing.T, seed int64) *core.SessionData {
	t.Helper()
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(seed)))
	rec, err := attack.Record(victim, "472913", seed)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := attack.Replay(rec, device.Catalog()[0], attack.Scenario{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return replay
}

func TestStreamGenuineSessionAccepted(t *testing.T) {
	srv, addr := streamTestServer(t, nil)
	reply := streamSession(t, addr, "stream-genuine-1", genuineSession(t, 21))

	resp, early, err := protocol.DecisionFromStreamFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted {
		t.Fatalf("genuine session rejected: %+v", resp)
	}
	if early {
		t.Error("genuine session decided before its upload finished")
	}
	if resp.TraceID != "stream-genuine-1" {
		t.Errorf("trace ID = %q", resp.TraceID)
	}
	// BuildSystem without an enrolled roster runs the three sensor-side
	// stages; speaker identity joins only after enrollment.
	if len(resp.Stages) != 3 {
		t.Errorf("stage count = %d, want 3", len(resp.Stages))
	}
	st := srv.Stats()
	if st.Accepted != 1 || st.Requests != 1 {
		t.Errorf("stats = %+v, want one accepted request", st)
	}
	// The server counts a frame once its write returns, which can be
	// after the client has read it: wait for the egress accounting.
	deadline := time.Now().Add(5 * time.Second)
	for (srv.streamFramesOut.Value() == 0 || srv.streamBytesOut.Value() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.streamFramesIn.Value() == 0 || srv.streamFramesOut.Value() == 0 {
		t.Error("frame counters not fed")
	}
	if srv.streamBytesIn.Value() == 0 || srv.streamBytesOut.Value() == 0 {
		t.Error("byte counters not fed")
	}
}

func TestStreamReplayRejectedWithEarlyExit(t *testing.T) {
	srv, addr := streamTestServer(t, nil)
	reply := streamSession(t, addr, "stream-replay-1", replaySession(t, 22))

	resp, early, err := protocol.DecisionFromStreamFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted {
		t.Fatalf("replay attack accepted: %+v", resp)
	}
	st := srv.Stats()
	if st.Rejected != 1 {
		t.Errorf("stats = %+v, want one rejected request", st)
	}
	var exits int64
	for _, c := range srv.streamEarlyExit {
		exits += c.Value()
	}
	if early && exits == 0 {
		t.Error("early decision not counted in the early-exit series")
	}
	if !early && exits != 0 {
		t.Error("early-exit counted for a full-session decision")
	}
	// A loudspeaker replay carries its magnetic signature from the first
	// chunk; the decision must beat the finish frame.
	if !early {
		t.Error("replay attack not rejected before its upload finished")
	}
}

func TestStreamVersionNegotiationRefusesAncientClient(t *testing.T) {
	_, addr := streamTestServer(t, nil)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := stream.WriteHandshake(conn, 0); err != nil {
		t.Fatal(err)
	}
	ver, err := stream.ReadHandshake(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 {
		t.Fatalf("server negotiated version %d with a version-0 client, want refusal", ver)
	}
	// The server closes after refusing; the next read sees EOF.
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after version refusal")
	}
}

func TestStreamNonProtocolPeerDroppedSilently(t *testing.T) {
	srv, addr := streamTestServer(t, nil)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An HTTP client hitting the wrong port: bad magic, no session.
	if _, err := conn.Write([]byte("POST /verify HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("non-protocol peer kept a session open")
	}
	if st := srv.Stats(); st.Requests != 0 {
		t.Errorf("bad-magic connection accounted an outcome: %+v", st)
	}
}

func TestStreamShedsWhenOverloaded(t *testing.T) {
	srv, addr := streamTestServer(t, nil, WithMaxInflightVerifies(1))

	// The first connection takes the only slot right after its handshake
	// and then stalls mid-session.
	hold := dialStream(t, addr)
	defer hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.verifyInflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first stream session never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	conn := dialStream(t, addr)
	reply, err := stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, retryAfter, env, err := protocol.ErrorFromStreamFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", status)
	}
	if retryAfter != 1 {
		t.Errorf("retry-after = %d, want 1", retryAfter)
	}
	if env.Error == "" {
		t.Error("shed envelope has no error message")
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Errorf("stats = %+v, want one shed", st)
	}
}

// TestStreamDrainReleasesAdmissionSlot pins that a session rejected
// early gives its admission slot back before the server drains the
// frames its client is still sending: under -max-inflight 1 a client
// trickling frames after its REJECT must not shed the next session.
func TestStreamDrainReleasesAdmissionSlot(t *testing.T) {
	srv, addr := streamTestServer(t, nil, WithMaxInflightVerifies(1))
	frames := sessionFrames(t, "stream-drain-1", replaySession(t, 22))
	next := sessionFrames(t, "stream-drain-2", replaySession(t, 24))

	first := dialStream(t, addr)
	for _, f := range frames[:len(frames)-1] {
		if err := stream.WriteFrame(first, f); err != nil {
			t.Fatalf("writing %v frame: %v", f.Type, err)
		}
	}
	reply, err := stream.ReadFrame(first, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, early, err := protocol.DecisionFromStreamFrame(reply); err != nil || !early {
		t.Fatalf("first session: early = %v, err = %v; want an early decision", early, err)
	}

	// The first client keeps sending after its verdict and never
	// finishes, while the next session arrives.
	stop := make(chan struct{})
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := stream.WriteFrame(first, frames[1]); err != nil {
				t.Errorf("trickling after the verdict: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-trickled
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.verifyInflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot still held while draining the first session")
		}
		time.Sleep(time.Millisecond)
	}
	conn := dialStream(t, addr)
	for _, f := range next {
		if err := stream.WriteFrame(conn, f); err != nil {
			t.Fatalf("writing %v frame: %v", f.Type, err)
		}
	}
	reply, err = stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := protocol.DecisionFromStreamFrame(reply); err != nil {
		status, _, _, _ := protocol.ErrorFromStreamFrame(reply)
		t.Fatalf("next session answered status %d, want a decision", status)
	}
	if st := srv.Stats(); st.Shed != 0 || st.Rejected != 2 {
		t.Errorf("stats = %+v, want two rejections and nothing shed", st)
	}
}

func TestStreamDigestMismatchRefused(t *testing.T) {
	srv, addr := streamTestServer(t, nil)
	conn := dialStream(t, addr)
	frames := sessionFrames(t, "stream-tamper-1", genuineSession(t, 23))
	// Corrupt the finish digest: flip one byte of the client's sum.
	fin, err := stream.DecodeFinish(frames[len(frames)-1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	fin.Digest[0] ^= 0x01
	frames[len(frames)-1].Payload = stream.EncodeFinish(fin)
	for _, f := range frames {
		if err := stream.WriteFrame(conn, f); err != nil {
			t.Fatalf("writing %v frame: %v", f.Type, err)
		}
	}
	reply, err := stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, _, env, err := protocol.ErrorFromStreamFrame(reply)
	if err != nil {
		t.Fatalf("reply is not an error frame: %v", err)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("digest mismatch status = %d, want 400", status)
	}
	if env.TraceID != "stream-tamper-1" {
		t.Errorf("envelope trace ID = %q", env.TraceID)
	}
	st := srv.Stats()
	if st.Errors != 1 || st.Accepted != 0 {
		t.Errorf("stats = %+v, want one error and no verdicts", st)
	}
}

func TestStreamVerifyTimeoutMapsToDeadline(t *testing.T) {
	srv, addr := streamTestServer(t, nil, WithVerifyTimeout(time.Nanosecond))
	conn := dialStream(t, addr)
	for _, f := range sessionFrames(t, "stream-deadline-1", genuineSession(t, 24)) {
		if err := stream.WriteFrame(conn, f); err != nil {
			// The server may cut the stream as soon as it refuses; late
			// writes racing the close are expected.
			break
		}
	}
	reply, err := stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, _, env, err := protocol.ErrorFromStreamFrame(reply)
	if err != nil {
		t.Fatalf("reply is not an error frame: %v", err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("deadline status = %d, want 503", status)
	}
	if env.Error == "" {
		t.Error("deadline envelope has no message")
	}
	st := srv.Stats()
	if st.DeadlineExceeded != 1 {
		t.Errorf("stats = %+v, want one deadline_exceeded", st)
	}
	if st.Accepted != 0 && st.Rejected != 0 {
		t.Error("expired deadline fabricated a verdict")
	}
}

// TestStreamVerifyTimeoutAbandonsHungStage is the stream twin of
// TestVerifyTimeoutReturns503: a stage hung past the verify timeout
// ends the session with a 503 error frame soon after the deadline,
// counted under DeadlineExceeded, and the session gives back its
// admission slot, so the next session is admitted and Shutdown returns
// while the stage is still parked.
func TestStreamVerifyTimeoutAbandonsHungStage(t *testing.T) {
	sys, started, release := parkedSystem(t, core.StageDistance, nil)
	const timeout = 200 * time.Millisecond
	srv, addr := streamTestServer(t, sys, WithVerifyTimeout(timeout), WithMaxInflightVerifies(1))
	// Unpark the stages before the server's own cleanup shuts it down, so
	// a handler stuck in one cannot hang the suite.
	t.Cleanup(release)
	session := genuineSession(t, 41)

	for i := 1; i <= 2; i++ {
		// The first session's slot must be back before the next dials,
		// or the second would be shed for a reason this test is not about.
		for deadline := time.Now().Add(5 * time.Second); srv.verifyInflight.Value() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("session %d: admission slot still held", i-1)
			}
		}
		traceID := fmt.Sprintf("stream-hung-%d", i)
		frames := sessionFrames(t, traceID, session)
		conn := dialStream(t, addr)
		for _, f := range frames {
			if err := stream.WriteFrame(conn, f); err != nil {
				break
			}
		}
		if err := conn.SetReadDeadline(time.Now().Add(timeout + 3*time.Second)); err != nil {
			t.Fatal(err)
		}
		reply, err := stream.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("session %d: no reply within 3s of the deadline: %v", i, err)
		}
		status, _, env, err := protocol.ErrorFromStreamFrame(reply)
		if err != nil {
			t.Fatalf("session %d: reply is not an error frame: %v", i, err)
		}
		if status != http.StatusServiceUnavailable {
			t.Fatalf("session %d: status = %d, want 503", i, status)
		}
		if env.TraceID != traceID {
			t.Errorf("session %d: envelope trace ID = %q", i, env.TraceID)
		}
		select {
		case <-started:
		default:
			t.Errorf("session %d: stage hook never entered", i)
		}
		if st := srv.Stats(); st.DeadlineExceeded != int64(i) || st.Requests != int64(i) {
			t.Errorf("after session %d: stats = %+v, want %d deadline_exceeded and nothing else", i, st, i)
		}
	}

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown with a stage still parked: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return with a stage still parked")
	}
}

func TestStreamFrameTimeoutReleasesStalledSession(t *testing.T) {
	srv, addr := streamTestServer(t, nil, WithStreamFrameTimeout(100*time.Millisecond))
	// Synthesize the session before dialing: the per-frame deadline starts
	// at the handshake, and session synthesis can outlast it under -race.
	frames := sessionFrames(t, "stream-stall-1", genuineSession(t, 25))
	conn := dialStream(t, addr)
	// Send only the hello, then stall past the per-frame deadline.
	if err := stream.WriteFrame(conn, frames[0]); err != nil {
		t.Fatal(err)
	}
	reply, err := stream.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("stalled session got no error frame: %v", err)
	}
	status, _, _, err := protocol.ErrorFromStreamFrame(reply)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("stall status = %d, want 400", status)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want one error", st)
	}
}

// TestStreamUndemodulatableCaptureRefused is the stream twin of
// TestVerifyUndemodulatableCaptureRefused: a hello pilot that is NaN,
// infinite or above the capture's Nyquist frequency, or a capture
// audio_chunk rate of 0, ends the session with a 400 error frame counted
// under Errors, never a verdict.
func TestStreamUndemodulatableCaptureRefused(t *testing.T) {
	srv, addr := streamTestServer(t, nil)
	cases := []struct {
		name   string
		mutate func(*protocol.VerifyRequest)
	}{
		{"NaN pilot", func(r *protocol.VerifyRequest) { r.PilotHz = math.NaN() }},
		{"+Inf pilot", func(r *protocol.VerifyRequest) { r.PilotHz = math.Inf(1) }},
		{"pilot above Nyquist", func(r *protocol.VerifyRequest) { r.PilotHz = 30000 }},
		{"capture rate 0", func(r *protocol.VerifyRequest) { zeroCaptureRate(t, r) }},
	}
	session := genuineSession(t, 1)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(req)
			traceID := fmt.Sprintf("stream-undemodulatable-%d", i)
			frames, err := protocol.StreamFrames(traceID, req)
			if err != nil {
				t.Fatal(err)
			}
			conn := dialStream(t, addr)
			for _, f := range frames {
				if err := stream.WriteFrame(conn, f); err != nil {
					// The server may close as soon as it refuses.
					break
				}
			}
			reply, err := stream.ReadFrame(conn, 0)
			if err != nil {
				t.Fatal(err)
			}
			status, _, env, err := protocol.ErrorFromStreamFrame(reply)
			if err != nil {
				t.Fatalf("reply is not an error frame: %v", err)
			}
			if status != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", status)
			}
			if env.TraceID != traceID {
				t.Errorf("envelope trace ID = %q, want %q", env.TraceID, traceID)
			}
		})
	}
	st := srv.Stats()
	if st.Requests != st.Accepted+st.Rejected+st.Errors+st.DeadlineExceeded+st.Shed {
		t.Errorf("counter invariant broken: %+v", st)
	}
	if st.Errors != int64(len(cases)) || st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want %d errors and no verdicts", st, len(cases))
	}
}

// BenchmarkStreamSession runs one genuine session per iteration over a
// loopback stream connection: handshake, every frame, the decision. The
// server runs in-process, so the allocation figures include its side of
// the session.
func BenchmarkStreamSession(b *testing.B) {
	_, addr := streamTestServer(b, nil)
	var wire bytes.Buffer
	for _, f := range sessionFrames(b, "bench-genuine", genuineSession(b, 21)) {
		if err := stream.WriteFrame(&wire, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.WriteHandshake(conn, stream.Version); err != nil {
			b.Fatal(err)
		}
		if _, err := stream.ReadHandshake(conn); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(wire.Bytes()); err != nil {
			b.Fatal(err)
		}
		reply, err := stream.ReadFrame(conn, 0)
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
		resp, _, err := protocol.DecisionFromStreamFrame(reply)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Accepted {
			b.Fatalf("genuine session rejected: %+v", resp)
		}
	}
}
