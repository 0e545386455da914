package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/stream"
	"voiceguard/internal/telemetry"
)

// Streaming metric names exported on /metrics.
const (
	// MetricStreamFrames counts protocol frames by direction ("in"/"out").
	MetricStreamFrames = "voiceguard_stream_frames_total"
	// MetricStreamBytes counts protocol bytes on the wire by direction.
	MetricStreamBytes = "voiceguard_stream_bytes_total"
	// MetricStreamEarlyExit counts sessions rejected before their upload
	// finished, labeled by the deciding stage.
	MetricStreamEarlyExit = "voiceguard_stream_early_exit_total"
	// MetricStreamTTD is the stream path's time-to-decision histogram:
	// first handshake byte to verdict, upload included — the number the
	// HTTP path's pipeline latency cannot capture because its upload
	// happens before the pipeline starts.
	MetricStreamTTD = "voiceguard_stream_time_to_decision_seconds"
)

// DefStreamFrameTimeout bounds the wait for each client frame: a stalled
// or vanished uploader releases its connection (and its admission slot)
// after this long, independent of the whole-session verify timeout.
const DefStreamFrameTimeout = 30 * time.Second

// streamDrainLimit bounds how long a connection keeps reading the frames
// a client still sends after its session was decided early; the drained
// bytes are bounded by protocol.MaxPayloadBytes as well.
const streamDrainLimit = 10 * time.Second

// WithStreamFrameTimeout overrides the per-frame read deadline of the
// streaming listener (default DefStreamFrameTimeout).
func WithStreamFrameTimeout(d time.Duration) Option {
	return func(s *Server) { s.streamFrameTimeout = d }
}

// initStream registers the streaming metrics; called from New so the
// series exist (at zero) whether or not a stream listener ever starts.
func (s *Server) initStream() {
	if s.streamFrameTimeout == 0 {
		s.streamFrameTimeout = DefStreamFrameTimeout
	}
	r := s.registry
	s.streamFramesIn = r.Counter(MetricStreamFrames, telemetry.Labels{"dir": "in"})
	s.streamFramesOut = r.Counter(MetricStreamFrames, telemetry.Labels{"dir": "out"})
	r.SetHelp(MetricStreamFrames, "streaming protocol frames by direction")
	s.streamBytesIn = r.Counter(MetricStreamBytes, telemetry.Labels{"dir": "in"})
	s.streamBytesOut = r.Counter(MetricStreamBytes, telemetry.Labels{"dir": "out"})
	r.SetHelp(MetricStreamBytes, "streaming protocol bytes by direction")
	s.streamEarlyExit = make(map[core.Stage]*telemetry.Counter)
	for _, st := range []core.Stage{
		core.StageDistance, core.StageSoundField, core.StageLoudspeaker, core.StageSpeakerID,
	} {
		s.streamEarlyExit[st] = r.Counter(MetricStreamEarlyExit, telemetry.Labels{"stage": st.MetricName()})
	}
	r.SetHelp(MetricStreamEarlyExit, "stream sessions rejected before upload completed, by deciding stage")
	s.streamTTD = r.Histogram(MetricStreamTTD, nil, nil)
	r.SetHelp(MetricStreamTTD, "stream time to decision (handshake to verdict, upload included)")
	s.streamConns = make(map[net.Conn]struct{})
}

// StreamAddr returns the address ListenAndServeStream bound, or ""
// before the stream listener exists.
func (s *Server) StreamAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streamAddr
}

// ListenAndServeStream starts the binary streaming listener on addr and
// blocks until Shutdown or listener failure, reporting the bound address
// through ready exactly like ListenAndServe.
func (s *Server) ListenAndServeStream(addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: stream listening on %s: %w", addr, err)
	}
	bound := ln.Addr().String()
	s.mu.Lock()
	s.streamAddr = bound
	s.mu.Unlock()
	if ready != nil {
		select {
		case ready <- bound:
		default:
		}
	}
	return s.ServeStream(ln)
}

// ServeStream accepts streaming-protocol connections on ln until
// Shutdown. Each connection carries exactly one verification session.
// Returns http.ErrServerClosed after a clean shutdown, mirroring Serve.
func (s *Server) ServeStream(ln net.Listener) error {
	s.mu.Lock()
	if s.streamShutdown {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.streamLn = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.streamShutdown
			s.mu.Unlock()
			if closed {
				return http.ErrServerClosed
			}
			return fmt.Errorf("server: stream accept: %w", err)
		}
		s.mu.Lock()
		s.streamConns[conn] = struct{}{}
		s.mu.Unlock()
		s.streamWG.Add(1)
		go func() {
			defer s.streamWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.streamConns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handleStreamConn(conn)
		}()
	}
}

// shutdownStream closes the streaming listener and drains in-flight
// sessions until ctx expires, then force-closes their connections (the
// per-frame deadline guarantees the handlers notice promptly).
func (s *Server) shutdownStream(ctx context.Context) {
	s.mu.Lock()
	s.streamShutdown = true
	ln := s.streamLn
	s.mu.Unlock()
	if ln == nil {
		return
	}
	ln.Close()
	done := make(chan struct{})
	go func() {
		s.streamWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.streamConns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// readStreamFrame reads one frame under the per-frame deadline, or
// under limit when that is set and comes first, counting it toward the
// ingress metrics.
func (s *Server) readStreamFrame(conn net.Conn, limit time.Time) (stream.Frame, error) {
	deadline := time.Now().Add(s.streamFrameTimeout)
	if !limit.IsZero() && limit.Before(deadline) {
		deadline = limit
	}
	if err := conn.SetReadDeadline(deadline); err != nil {
		return stream.Frame{}, fmt.Errorf("server: arming frame deadline: %w", err)
	}
	f, err := stream.ReadFrame(conn, 0)
	if err != nil {
		return stream.Frame{}, err
	}
	s.streamFramesIn.Inc()
	s.streamBytesIn.Add(f.WireSize())
	return f, nil
}

// writeStreamFrame writes one frame under the per-frame deadline,
// counting it toward the egress metrics.
func (s *Server) writeStreamFrame(conn net.Conn, f stream.Frame) error {
	if err := conn.SetWriteDeadline(time.Now().Add(s.streamFrameTimeout)); err != nil {
		return fmt.Errorf("server: arming frame write deadline: %w", err)
	}
	if err := stream.WriteFrame(conn, f); err != nil {
		return err
	}
	s.streamFramesOut.Inc()
	s.streamBytesOut.Add(f.WireSize())
	return nil
}

// sendStreamError answers a refused session with the same JSON envelope
// writeJSONError sends on HTTP, wrapped in an error frame.
func (s *Server) sendStreamError(conn net.Conn, traceID string, status, retryAfterSec int, msg string) {
	f, err := protocol.StreamError(status, retryAfterSec, &protocol.VerifyResponse{Error: msg, TraceID: traceID})
	if err != nil {
		s.logger.Error("encoding stream error frame", "err", err, "trace_id", traceID)
		return
	}
	if err := s.writeStreamFrame(conn, f); err != nil {
		s.logger.Warn("writing stream error frame", "err", err, "trace_id", traceID)
	}
}

// handleStreamConn speaks one streaming verification session: handshake,
// then streamSession, then the drain of frames still in flight after an
// early decision, which runs after the session has given back its
// admission slot.
func (s *Server) handleStreamConn(conn net.Conn) {
	if err := conn.SetDeadline(time.Now().Add(s.streamFrameTimeout)); err != nil {
		return
	}
	clientVer, err := stream.ReadHandshake(conn)
	if err != nil {
		// Not a protocol peer (port scan, HTTP client): drop silently,
		// nothing to account.
		return
	}
	ver := stream.NegotiateVersion(clientVer)
	if err := stream.WriteHandshake(conn, ver); err != nil || ver == 0 {
		return
	}

	if s.streamSession(conn) {
		s.drainStream(conn)
	}
}

// streamSession runs one session after the handshake: admission,
// incremental evaluation frame by frame, one decision or error frame
// back. It reports whether the session was decided before its finish
// frame, leaving frames to drain. Outcome accounting mirrors
// handleVerify — every session that completes the handshake lands in
// exactly one of accepted/rejected/errored/deadlined/shed, so the Stats
// invariant holds across both transports.
func (s *Server) streamSession(conn net.Conn) (early bool) {
	start := time.Now()
	// The streaming session outlives any single read, so its context is
	// rooted here and bounded by the verify timeout when configured.
	//lint:allow ctxfirst connection handler owns the session lifetime; there is no inbound request context
	ctx := context.Background()
	if s.verifyTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.verifyTimeout)
		defer cancel()
	}

	// Admission control before any session state exists, as on HTTP.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Inc()
			s.observeOutcome(telemetry.OutcomeShed, 0)
			s.logger.Warn("stream verify shed", "max_inflight", s.maxInflight)
			s.sendStreamError(conn, "", http.StatusTooManyRequests, 1,
				fmt.Sprintf("overloaded: %d verifications already in flight", s.maxInflight))
			return false
		}
	}
	s.verifyInflight.Add(1)
	defer s.verifyInflight.Add(-1)

	fail := func(traceID string, status int, msg string) {
		s.errored.Inc()
		s.observeOutcome(telemetry.OutcomeError, time.Since(start))
		s.logger.Warn("stream verify failed", "trace_id", traceID, "status", status, "err", msg)
		s.sendStreamError(conn, traceID, status, 0, msg)
	}

	// The first frame must be the hello: it names the session before any
	// evidence arrives.
	first, err := s.readStreamFrame(conn, time.Time{})
	if err != nil {
		fail("", http.StatusBadRequest, fmt.Sprintf("reading hello frame: %v", err))
		return false
	}
	if first.Type != stream.TypeHello {
		fail("", http.StatusBadRequest, fmt.Sprintf("first frame is %v, want hello", first.Type))
		return false
	}
	hello, err := stream.DecodeHello(first.Payload)
	if err != nil {
		fail("", http.StatusBadRequest, fmt.Sprintf("decoding hello: %v", err))
		return false
	}
	verifier, err := s.system.NewStreamVerifier(hello.TraceID)
	if err != nil {
		fail(hello.TraceID, http.StatusInternalServerError, fmt.Sprintf("opening stream verification: %v", err))
		return false
	}
	traceID := verifier.TraceID()
	digest := stream.NewSessionDigest()
	digest.Add(first)
	if _, err := protocol.ApplyStreamFrame(ctx, verifier, first); err != nil {
		s.streamSessionError(conn, verifier, traceID, start, err)
		return false
	}

	frames := uint32(1)
	for {
		f, err := s.readStreamFrame(conn, time.Time{})
		if err != nil {
			verifier.Abandon("error")
			fail(traceID, http.StatusBadRequest, fmt.Sprintf("reading frame: %v", err))
			return false
		}
		if f.Type == stream.TypeFinish {
			fin, err := stream.DecodeFinish(f.Payload)
			if err != nil {
				verifier.Abandon("error")
				fail(traceID, http.StatusBadRequest, fmt.Sprintf("decoding finish: %v", err))
				return false
			}
			// Raw-byte digest comparison: the client's sum must reproduce
			// over the frames actually received, or the session was
			// corrupted/reordered in transit.
			if fin.Digest != digest.Sum() || fin.Frames != frames {
				verifier.Abandon("error")
				fail(traceID, http.StatusBadRequest, fmt.Sprintf(
					"session digest mismatch over %d frames", frames))
				return false
			}
			decision, err := verifier.Finish(ctx)
			if err != nil {
				s.streamSessionError(conn, verifier, traceID, start, err)
				return false
			}
			s.respondStream(conn, &decision, false, start)
			return false
		}
		digest.Add(f)
		frames++
		decision, err := protocol.ApplyStreamFrame(ctx, verifier, f)
		if err != nil {
			s.streamSessionError(conn, verifier, traceID, start, err)
			return false
		}
		if decision != nil {
			s.respondStream(conn, decision, true, start)
			return true
		}
	}
}

// streamSessionError maps an evaluator error onto the stream the way
// handleVerify maps one onto HTTP: deadline/cancellation becomes an
// honest 503 (deadline_exceeded outcome, never a fabricated rejection),
// anything else a 400-class error.
func (s *Server) streamSessionError(conn net.Conn, v *core.StreamVerifier, traceID string, start time.Time, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.deadlined.Inc()
		s.observeOutcome(telemetry.OutcomeDeadlineExceeded, time.Since(start))
		s.logger.Warn("stream verify deadline exceeded", "trace_id", traceID,
			"timeout", s.verifyTimeout, "err", err)
		s.sendStreamError(conn, traceID, http.StatusServiceUnavailable, 0,
			fmt.Sprintf("verification abandoned: %v", err))
		return
	}
	v.Abandon("error")
	s.errored.Inc()
	s.observeOutcome(telemetry.OutcomeError, time.Since(start))
	s.logger.Warn("stream verify failed", "trace_id", traceID, "err", err)
	s.sendStreamError(conn, traceID, http.StatusBadRequest, 0, err.Error())
}

// respondStream accounts a decision and answers with a decision frame
// (FlagEarly when the verdict beat the client's finish frame).
func (s *Server) respondStream(conn net.Conn, decision *core.Decision, early bool, start time.Time) {
	ttd := time.Since(start)
	if decision.Accepted {
		s.accepted.Inc()
		s.observeOutcome(telemetry.OutcomeAccepted, ttd)
	} else {
		s.rejected.Inc()
		s.observeOutcome(telemetry.OutcomeRejected, ttd)
	}
	s.observeDecision(decision)
	s.streamTTD.ObserveDurationExemplar(ttd, decision.TraceID)
	if early && !decision.Accepted {
		if c, ok := s.streamEarlyExit[decision.FailedStage]; ok {
			c.Inc()
		}
	}
	for _, st := range decision.Stages {
		if h, ok := s.stageHist[st.Stage]; ok {
			h.ObserveDurationExemplar(st.Elapsed, decision.TraceID)
		}
	}
	s.logger.Info("stream verify",
		"trace_id", decision.TraceID,
		"decision", decision.String(),
		"early_exit", early,
		"time_to_decision", ttd,
	)
	f, err := protocol.StreamDecision(protocol.DecisionToResponse(*decision), early)
	if err != nil {
		s.logger.Error("encoding stream decision", "err", err, "trace_id", decision.TraceID)
		return
	}
	if err := s.writeStreamFrame(conn, f); err != nil {
		s.logger.Warn("writing stream decision", "err", err, "trace_id", decision.TraceID)
	}
}

// drainStream consumes frames still in flight after an early decision so
// the client's writes do not error mid-upload. The finish frame (or the
// client closing on receipt of the decision) ends the drain; the
// per-frame deadline, streamDrainLimit and protocol.MaxPayloadBytes
// bound it against a client that keeps sending.
func (s *Server) drainStream(conn net.Conn) {
	deadline := time.Now().Add(streamDrainLimit)
	for drained := int64(0); drained <= protocol.MaxPayloadBytes; {
		f, err := s.readStreamFrame(conn, deadline)
		if err != nil || f.Type == stream.TypeFinish {
			return
		}
		drained += f.WireSize()
	}
}
