//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation checks here run only without it.

package server

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"voiceguard/internal/protocol"
)

// intakeBufferBytes returns the bytes allocated so far, by the stream
// listener's connection handlers, for read-ahead and payload buffers:
// every allocation whose stack holds handleStreamConn and either the
// connection reader's constructor, package bufio, or FrameReader.Next.
// The memory profile must record every allocation (MemProfileRate 1),
// and it is current only after collections have published it.
func intakeBufferBytes(t *testing.T) int64 {
	t.Helper()
	runtime.GC()
	runtime.GC()
	var records []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(records, true)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, r := range records {
		handler, buffer := false, false
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			switch {
			case strings.HasSuffix(f.Function, "server.(*Server).handleStreamConn"):
				handler = true
			case strings.HasSuffix(f.Function, "server.newStreamReader"),
				strings.HasPrefix(f.Function, "bufio."),
				strings.HasSuffix(f.Function, "stream.(*FrameReader).Next"):
				buffer = true
			}
			if !more {
				break
			}
		}
		if handler && buffer {
			total += r.AllocBytes
		}
	}
	return total
}

// TestStreamWarmSessionAllocatesNoReadBuffers pins the point of the
// recycled connection readers: a session on a listener that has served
// one before allocates no read-ahead or payload buffer. A collection
// empties the pool (and publishes the profile), so the test compares a
// cold session alone with a cold session followed by a warm one, with
// no collection between those two: both must allocate the same bytes.
// A pool keeps what a goroutine puts back on its own P first, so the
// test runs on one P, where the next handler always finds it.
func TestStreamWarmSessionAllocatesNoReadBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	_, addr := streamTestServer(t, nil)
	session := genuineSession(t, 21)
	accept := func(traceID string) {
		t.Helper()
		resp, _, err := protocol.DecisionFromStreamFrame(streamSession(t, addr, traceID, session))
		if err != nil || !resp.Accepted {
			t.Fatalf("%s: genuine session not accepted: %+v, %v", traceID, resp, err)
		}
	}
	start := intakeBufferBytes(t)
	accept("cold-1")
	afterCold := intakeBufferBytes(t)
	accept("cold-2")
	accept("warm")
	afterWarm := intakeBufferBytes(t)
	cold, coldAndWarm := afterCold-start, afterWarm-afterCold
	if cold == 0 {
		t.Fatal("the memory profile shows no intake buffer for a cold session; the stack filter is stale")
	}
	if coldAndWarm != cold {
		t.Errorf("a cold session allocates %d bytes of read and payload buffers, a cold and a warm one %d: the warm one allocated %d, want 0",
			cold, coldAndWarm, coldAndWarm-cold)
	}
}
