//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation checks here run only without it.

package protocol

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"voiceguard/internal/core"
	"voiceguard/internal/stream"
)

// TestApplyStreamFrameAudioAllocatesOnlyTheJoin pins the audio intake's
// allocation: on a warmed verifier pool, applying a 15-chunk capture
// through ApplyStreamFrame allocates the one exactly sized slice the
// session keeps, plus a small constant for the chunk lists. Decoding
// each chunk into a fresh slice would add 64 KiB a chunk.
func TestApplyStreamFrameAudioAllocatesOnlyTheJoin(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 15
	samples := make([]float64, chunks*stream.DefAudioChunkSamples-100)
	for i := range samples {
		samples[i] = float64(i%200)/100 - 1
	}
	hello, err := stream.EncodeHello(stream.Hello{TraceID: "alloc", ClaimedUser: "victim", PilotHz: 19000})
	if err != nil {
		t.Fatal(err)
	}
	frames := []stream.Frame{{Type: stream.TypeHello, Payload: hello}}
	for off := 0; off < len(samples); off += stream.DefAudioChunkSamples {
		end := min(off+stream.DefAudioChunkSamples, len(samples))
		f := stream.Frame{Type: stream.TypeAudioChunk, Payload: stream.EncodeAudioChunk(stream.AudioChunk{
			Kind: stream.AudioCapture, Rate: 44100, Samples: samples[off:end],
		})}
		if end == len(samples) {
			f.Flags = stream.FlagLast
		}
		frames = append(frames, f)
	}
	if len(frames) != 1+chunks {
		t.Fatalf("%d audio frames, want %d", len(frames)-1, chunks)
	}

	// A collection empties sync.Pools, so none may run while measuring;
	// and a pool keeps what is put back on the P that put it, so the
	// test runs on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	capture := func() uint64 {
		v, err := sys.NewStreamVerifier("alloc")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyStreamFrame(ctx, v, frames[0]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, f := range frames[1:] {
			if _, err := ApplyStreamFrame(ctx, v, f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	capture() // warms the pool of audio blocks
	// The constant covers the chunk lists and the join's rounding up to
	// whole pages (1,824 bytes together on linux/amd64, Go 1.24).
	const constant = 4 << 10
	join := uint64(8 * len(samples))
	if got := capture(); got > join+constant {
		t.Errorf("a warm 15-chunk capture allocates %d bytes, want at most the %d-byte join plus %d", got, join, constant)
	}
}
