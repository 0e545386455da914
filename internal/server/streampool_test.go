package server

// Pool-safety tests of the stream intake: connection readers and audio
// blocks are recycled process-wide, so sessions that die holding them
// must not disturb the sessions that get them next.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/stream"
)

// wireFrame encodes one frame as it goes on the wire.
func wireFrame(t testing.TB, f stream.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// captureSpan returns the indexes of a session's first capture chunk and
// of its sound-field closing chunk.
func captureSpan(t testing.TB, frames []stream.Frame) (firstCapture, fieldLast int) {
	t.Helper()
	firstCapture, fieldLast = -1, -1
	for i, f := range frames {
		switch f.Type {
		case stream.TypeAudioChunk:
			c, err := stream.DecodeAudioChunk(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if c.Kind == stream.AudioCapture && firstCapture < 0 {
				firstCapture = i
			}
		case stream.TypeFieldChunk:
			if f.Flags&stream.FlagLast != 0 {
				fieldLast = i
			}
		}
	}
	if firstCapture < 0 || fieldLast < 0 || fieldLast > firstCapture {
		t.Fatalf("frame order: first capture chunk %d, field close %d", firstCapture, fieldLast)
	}
	return firstCapture, fieldLast
}

// TestStreamPoolConcurrentSessionsStayBitIdentical runs genuine stream
// sessions concurrently with sessions abandoned partway through their
// capture audio, so they die holding lent audio blocks and a connection
// reader: one sends a frame with a corrupt CRC, one a finish frame whose
// digest does not match, and one, on a second server whose sound-field
// stage parks until the session's deadline, closes its field channel
// after the first capture chunks. Both servers draw on the same
// process-wide pools. Every genuine decision must match VerifyContext's
// on the same session bit for bit, and every abandoned session must get
// its error.
func TestStreamPoolConcurrentSessionsStayBitIdentical(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := streamTestServer(t, sys)
	parked, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parked.StageHook = func(ctx context.Context, st core.Stage) {
		if st == core.StageSoundField {
			<-ctx.Done()
		}
	}
	_, parkedAddr := streamTestServer(t, parked, WithVerifyTimeout(300*time.Millisecond))

	type genuine struct {
		wire [][]byte
		want *protocol.VerifyResponse
	}
	var sessions []genuine
	var frames []stream.Frame
	for _, seed := range []int64{71, 72, 73} {
		session := genuineSession(t, seed)
		req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := protocol.ToSession(req)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sys.VerifyContext(context.Background(), "pool-reference", rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Accepted {
			t.Fatalf("seed %d: genuine session rejected by VerifyContext: %v", seed, d.String())
		}
		if frames, err = protocol.StreamFrames(fmt.Sprintf("pool-genuine-%d", seed), req); err != nil {
			t.Fatal(err)
		}
		g := genuine{want: protocol.DecisionToResponse(d)}
		for _, f := range frames {
			g.wire = append(g.wire, wireFrame(t, f))
		}
		sessions = append(sessions, g)
	}

	// The abandoned sessions, built from the last genuine one.
	firstCapture, fieldLast := captureSpan(t, frames)
	mid := firstCapture + 3
	var corrupt, badDigest, deadline [][]byte
	for _, f := range frames[:mid] {
		corrupt = append(corrupt, wireFrame(t, f))
	}
	badDigest = append(append(badDigest, corrupt...), wireFrame(t, frames[len(frames)-1]))
	bad := wireFrame(t, frames[mid])
	bad[len(bad)-1] ^= 0xff
	corrupt = append(corrupt, bad)
	for i, f := range frames[:mid] {
		if i != fieldLast {
			deadline = append(deadline, wireFrame(t, f))
		}
	}
	// A stage parked inline, as at GOMAXPROCS=1, returns after the
	// deadline with a result; the next frame's admission then ends the
	// session.
	deadline = append(deadline, wireFrame(t, frames[fieldLast]), wireFrame(t, frames[mid]))
	abandoned := []struct {
		name   string
		addr   string
		wire   [][]byte
		status int
	}{
		{"corrupt CRC", addr, corrupt, http.StatusBadRequest},
		{"bad digest", addr, badDigest, http.StatusBadRequest},
		{"deadline", parkedAddr, deadline, http.StatusServiceUnavailable},
	}

	// run sends one session and returns the server's reply.
	run := func(addr string, wire [][]byte) (stream.Frame, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return stream.Frame{}, err
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return stream.Frame{}, err
		}
		if err := stream.WriteHandshake(conn, stream.Version); err != nil {
			return stream.Frame{}, err
		}
		if _, err := stream.ReadHandshake(conn); err != nil {
			return stream.Frame{}, err
		}
		for _, w := range wire {
			if _, err := conn.Write(w); err != nil {
				break // the server refused and closed; its reply is buffered
			}
		}
		return stream.ReadFrame(conn, 0)
	}
	check := func(worker, round int) error {
		if (worker+round)%2 == 0 {
			g := sessions[(worker+round/2)%len(sessions)]
			reply, err := run(addr, g.wire)
			if err != nil {
				return err
			}
			got, _, err := protocol.DecisionFromStreamFrame(reply)
			if err != nil {
				status, _, env, _ := protocol.ErrorFromStreamFrame(reply)
				return fmt.Errorf("genuine session answered %d %q", status, env.Error)
			}
			return sameResponse(got, g.want)
		}
		a := abandoned[(worker+round/2)%len(abandoned)]
		reply, err := run(a.addr, a.wire)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		status, _, env, err := protocol.ErrorFromStreamFrame(reply)
		if err != nil {
			return fmt.Errorf("%s: reply is not an error frame: %w", a.name, err)
		}
		if status != a.status {
			return fmt.Errorf("%s: status %d (%q), want %d", a.name, status, env.Error, a.status)
		}
		return nil
	}

	const workers, rounds = 4, 6
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := check(w, r); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", w, r, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameResponse compares two verdicts by everything but timing and trace
// ID, scores by their bits.
func sameResponse(got, want *protocol.VerifyResponse) error {
	if got.Accepted != want.Accepted || got.FailedStage != want.FailedStage || len(got.Stages) != len(want.Stages) {
		return fmt.Errorf("decision accepted=%v failed=%q with %d stages, want accepted=%v failed=%q with %d",
			got.Accepted, got.FailedStage, len(got.Stages), want.Accepted, want.FailedStage, len(want.Stages))
	}
	for i, g := range got.Stages {
		w := want.Stages[i]
		if g.Stage != w.Stage || g.Pass != w.Pass || g.Detail != w.Detail || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("stage %d: %s pass=%v score %x %q, want %s pass=%v score %x %q", i,
				g.Stage, g.Pass, math.Float64bits(g.Score), g.Detail, w.Stage, w.Pass, math.Float64bits(w.Score), w.Detail)
		}
	}
	return nil
}

// TestStreamPoolRecycledReaderStartsBudgetAtZero holds each connection
// to a byte budget of its own on a reader that served another one
// before. Two connections in turn each send just over half of
// protocol.MaxPayloadBytes in audio, then half-close: each must end
// with a 400 for the missing frames, where a budget carried over from
// the first would answer the second 413. A third connection that passes
// the budget on its own still gets 413. A pool keeps what a goroutine
// puts back on its own P first, so the test runs on one, where the next
// connection's handler finds the last one's reader (the race detector
// still drops some).
func TestStreamPoolRecycledReaderStartsBudgetAtZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, addr := streamTestServer(t, nil, WithStreamFrameTimeout(5*time.Second))
	hello, err := stream.EncodeHello(stream.Hello{
		TraceID: "stream-budget", ClaimedUser: "victim", PilotHz: ranging.DefaultPilotHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	helloWire := wireFrame(t, stream.Frame{Type: stream.TypeHello, Payload: hello})
	chunk := wireFrame(t, stream.Frame{Type: stream.TypeAudioChunk, Payload: stream.EncodeAudioChunk(stream.AudioChunk{
		Kind: stream.AudioVoice, Rate: 16000, Samples: make([]float64, (stream.DefMaxFrameBytes-13)/8),
	})})
	session := func(chunks int) int {
		t.Helper()
		conn := dialStream(t, addr)
		defer conn.Close()
		if _, err := conn.Write(helloWire); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunks; i++ {
			if _, err := conn.Write(chunk); err != nil {
				t.Fatalf("writing chunk %d: %v", i, err)
			}
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		reply, err := stream.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		status, _, _, err := protocol.ErrorFromStreamFrame(reply)
		if err != nil {
			t.Fatal(err)
		}
		return status
	}
	half := int(protocol.MaxPayloadBytes/2/int64(len(chunk))) + 1
	for i := 1; i <= 2; i++ {
		if status := session(half); status != http.StatusBadRequest {
			t.Fatalf("connection %d with %d MiB: status %d, want 400", i, half*len(chunk)>>20, status)
		}
	}
	over := int(protocol.MaxPayloadBytes/int64(len(chunk))) + 1
	if status := session(over); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("connection over the budget: status %d, want 413", status)
	}
	if got := srv.tooLarge["stream"].Value(); got != 1 {
		t.Errorf("too-large counter for stream = %d, want 1", got)
	}
}
