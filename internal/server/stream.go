package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
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
// bytes count toward the session's byte budget as well.
const streamDrainLimit = 10 * time.Second

// streamReadBufferBytes is each connection's read-ahead. A frame is read
// in three parts (header, payload, trailer); through the buffer most of
// them are copies, not reads of the connection. Over loopback, a
// default-chunked genuine session (50 frames) took 155 reads unbuffered,
// 54 with 4 KiB, 46 with 16 KiB, 27 with 64 KiB and 18 with 128 KiB;
// 64 KiB matches the payload buffer a default audio chunk grows anyway.
const streamReadBufferBytes = 64 << 10

// streamReader is one connection's read side: a buffered reader over
// the connection and the FrameReader over that, with its payload buffer.
// streamReaders recycles them across connections, so a session's intake
// allocates no read or payload buffer once the pool is warm.
type streamReader struct {
	br *bufio.Reader
	fr *stream.FrameReader
}

// streamReaders holds the stream listener's idle connection readers.
var streamReaders = sync.Pool{New: newStreamReader}

func newStreamReader() any {
	sr := &streamReader{br: bufio.NewReaderSize(nil, streamReadBufferBytes)}
	sr.fr = stream.NewFrameReader(sr.br, 0)
	return sr
}

// errStreamTooLarge refuses a connection whose frames pass the session
// byte budget, protocol.MaxPayloadBytes: the same cap as an HTTP upload.
var errStreamTooLarge = fmt.Errorf("server: stream session exceeds %d bytes", protocol.MaxPayloadBytes)

// WithStreamFrameTimeout overrides the per-frame read deadline of the
// streaming listener (default DefStreamFrameTimeout). The same timeout
// is the idle deadline of every read of an HTTP request body.
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
	for _, st := range core.Stages {
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
	ln, err := s.listen(addr, &s.streamAddr, ready)
	if err != nil {
		return fmt.Errorf("server: stream listening on %s: %w", addr, err)
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

// readStreamFrame reads the connection's next frame under the per-frame
// deadline, or under limit when that is set and comes first, counting it
// toward the ingress metrics. The payload is valid until the next read;
// once the connection's frames pass the session byte budget, the error
// is errStreamTooLarge.
func (s *Server) readStreamFrame(conn net.Conn, fr *stream.FrameReader, limit time.Time) (stream.Frame, error) {
	deadline := time.Now().Add(s.streamFrameTimeout)
	if !limit.IsZero() && limit.Before(deadline) {
		deadline = limit
	}
	if err := conn.SetReadDeadline(deadline); err != nil {
		return stream.Frame{}, fmt.Errorf("server: arming frame deadline: %w", err)
	}
	f, err := fr.Next()
	if err != nil {
		return stream.Frame{}, err
	}
	s.streamFramesIn.Inc()
	s.streamBytesIn.Add(f.WireSize())
	if fr.WireBytes() > protocol.MaxPayloadBytes {
		return stream.Frame{}, errStreamTooLarge
	}
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
// the HTTP routes send, wrapped in an error frame.
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
// admission slot. Both read through one pooled streamReader, which the
// connection holds from the handshake to its end, so the session byte
// budget covers the drain and the next connection starts its own at 0.
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

	sr := streamReaders.Get().(*streamReader)
	sr.br.Reset(conn)
	if s.streamSession(conn, sr.fr) {
		s.drainStream(conn, sr.fr)
	}
	// Unpin the connection and any oversized payload buffer, and zero
	// the byte count, before the reader waits in the pool.
	sr.br.Reset(nil)
	sr.fr.Reset(sr.br)
	streamReaders.Put(sr)
}

// streamSession runs one session after the handshake: admission,
// incremental evaluation frame by frame, one decision or error frame
// back. It reports whether the session was decided before its finish
// frame, leaving frames to drain. Admission and accounting are every
// route's admit, fail and settle; the stream adds its frame I/O, its
// time-to-decision histogram and its early-exit counter. No payload
// bytes are kept past ApplyStreamFrame.
func (s *Server) streamSession(conn net.Conn, fr *stream.FrameReader) (early bool) {
	v := &verification{fam: &s.verifies, transport: "stream", start: time.Now()}
	var verifier *core.StreamVerifier
	v.refuse = func(status, retryAfterSec int, msg string) {
		if verifier != nil {
			// A no-op when the deadline already abandoned the session.
			verifier.Abandon("error")
		}
		s.sendStreamError(conn, v.traceID, status, retryAfterSec, msg)
	}
	// The streaming session outlives any single read, so its context is
	// rooted here and bounded by the verify timeout when configured.
	//lint:allow ctxfirst connection handler owns the session lifetime; there is no inbound request context
	ctx, cancel := s.deadline(context.Background())
	defer cancel()
	if !s.admit(v) {
		return false
	}
	defer s.release()

	// The first frame must be the hello: it names the session before any
	// evidence arrives.
	first, err := s.readStreamFrame(conn, fr, time.Time{})
	if err != nil {
		s.fail(v, http.StatusBadRequest, fmt.Sprintf("reading hello frame: %v", err))
		return false
	}
	if first.Type != stream.TypeHello {
		s.fail(v, http.StatusBadRequest, fmt.Sprintf("first frame is %v, want hello", first.Type))
		return false
	}
	hello, err := stream.DecodeHello(first.Payload)
	if err != nil {
		s.fail(v, http.StatusBadRequest, fmt.Sprintf("decoding hello: %v", err))
		return false
	}
	v.traceID, v.user = hello.TraceID, hello.ClaimedUser
	verifier, err = s.system.NewStreamVerifier(hello.TraceID)
	if err != nil {
		s.fail(v, http.StatusInternalServerError, fmt.Sprintf("opening stream verification: %v", err))
		return false
	}
	v.traceID = verifier.TraceID()

	// respond settles a decision or evaluator error and answers it with
	// a decision frame (FlagEarly when the verdict beat the client's
	// finish frame).
	respond := func(d *core.Decision, err error, early bool) bool {
		ttd := time.Since(v.start)
		if !s.settle(v, d, err, http.StatusBadRequest, "early_exit", early) {
			return false
		}
		s.streamTTD.ObserveDurationExemplar(ttd, d.TraceID)
		if early && !d.Accepted {
			if c, ok := s.streamEarlyExit[d.FailedStage]; ok {
				c.Inc()
			}
		}
		f, err := protocol.StreamDecision(protocol.DecisionToResponse(*d), early)
		if err != nil {
			s.logger.Error("encoding stream decision", "err", err, "trace_id", d.TraceID)
			return early
		}
		if err := s.writeStreamFrame(conn, f); err != nil {
			s.logger.Warn("writing stream decision", "err", err, "trace_id", d.TraceID)
		}
		return early
	}

	digest := stream.NewSessionDigest()
	f, frames := first, uint32(0)
	for {
		digest.Add(f)
		frames++
		if d, err := protocol.ApplyStreamFrame(ctx, verifier, f); d != nil || err != nil {
			return respond(d, err, true)
		}
		if f, err = s.readStreamFrame(conn, fr, time.Time{}); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errStreamTooLarge) {
				s.tooLarge["stream"].Inc()
				status = http.StatusRequestEntityTooLarge
			}
			s.fail(v, status, fmt.Sprintf("reading frame: %v", err))
			return false
		}
		if f.Type != stream.TypeFinish {
			continue
		}
		fin, err := stream.DecodeFinish(f.Payload)
		if err != nil {
			s.fail(v, http.StatusBadRequest, fmt.Sprintf("decoding finish: %v", err))
			return false
		}
		// Raw-byte digest comparison: the client's sum must reproduce
		// over the frames actually received, or the session was
		// corrupted/reordered in transit.
		if fin.Digest != digest.Sum() || fin.Frames != frames {
			s.fail(v, http.StatusBadRequest, fmt.Sprintf("session digest mismatch over %d frames", frames))
			return false
		}
		d, err := verifier.Finish(ctx)
		return respond(&d, err, false)
	}
}

// drainStream consumes frames still in flight after an early decision so
// the client's writes do not error mid-upload. The finish frame (or the
// client closing on receipt of the decision) ends the drain; the
// per-frame deadline, streamDrainLimit and the session byte budget bound
// it against a client that keeps sending.
func (s *Server) drainStream(conn net.Conn, fr *stream.FrameReader) {
	deadline := time.Now().Add(streamDrainLimit)
	for {
		f, err := s.readStreamFrame(conn, fr, deadline)
		if err != nil || f.Type == stream.TypeFinish {
			return
		}
	}
}
