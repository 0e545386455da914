package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// fuzzSeeds is the seed corpus both frame fuzzers share: one valid frame
// of every type, each also truncated mid-frame and with a corrupt CRC
// trailer, a hostile length prefix, and degenerate inputs.
func fuzzSeeds(f *testing.F) [][]byte {
	wire := func(fr Frame) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatalf("seed WriteFrame: %v", err)
		}
		return buf.Bytes()
	}
	hello, err := EncodeHello(Hello{TraceID: "fuzz", ClaimedUser: "victim", PilotHz: 19000})
	if err != nil {
		f.Fatalf("seed EncodeHello: %v", err)
	}
	valid := [][]byte{
		wire(Frame{Type: TypeHello, Payload: hello}),
		wire(Frame{Type: TypeSensorChunk, Flags: FlagLast, Payload: EncodeSensorChunk(SensorChunk{
			Kind: SensorMag, Samples: []Sample{{T: 0.01, X: 30, Y: -12, Z: 44}},
		})}),
		wire(Frame{Type: TypeFieldChunk, Payload: EncodeFieldChunk(FieldChunk{
			Points: []FieldPoint{{AngleDeg: 45, FreqHz: 2000, LevelDB: 61}},
		})}),
		wire(Frame{Type: TypeAudioChunk, Payload: EncodeAudioChunk(AudioChunk{
			Kind: AudioCapture, Rate: 44100, Samples: []float64{0.1, -0.1},
		})}),
		wire(Frame{Type: TypeSegmentMarks, Payload: EncodeSegmentMarks(SegmentMarks{SweepStart: 0.2, SweepEnd: 2.0})}),
		wire(Frame{Type: TypeFinish, Payload: EncodeFinish(Finish{Digest: sha256.Sum256(nil), Frames: 3})}),
		wire(Frame{Type: TypeDecision, Payload: []byte(`{"accepted":false}`), Flags: FlagEarly}),
		wire(Frame{Type: TypeError, Payload: EncodeError(ErrorInfo{Status: 503, RetryAfterSec: 1, Envelope: []byte(`{}`)})}),
	}
	var seeds [][]byte
	for _, raw := range valid {
		corrupt := bytes.Clone(raw)
		corrupt[len(corrupt)-1] ^= 0xff // corrupt digest/CRC trailer
		seeds = append(seeds, raw, raw[:len(raw)/2], corrupt)
	}
	oversized := make([]byte, 10)
	oversized[0] = byte(TypeAudioChunk)
	binary.LittleEndian.PutUint64(oversized[2:], 1<<40)
	return append(seeds, oversized, []byte{}, []byte{0xff, 0xff})
}

// FuzzReadFrame drives the frame decoder with arbitrary byte streams:
// ReadFrame must never panic, never allocate past the payload cap, and
// any frame it accepts must survive a write/read round trip bit-for-bit.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const payloadCap = 1 << 16
		got, err := ReadFrame(bytes.NewReader(data), payloadCap)
		if err != nil {
			return
		}
		if len(got.Payload) > payloadCap {
			t.Fatalf("decoded payload of %d bytes exceeds cap %d", len(got.Payload), payloadCap)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, got); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		again, err := ReadFrame(&buf, payloadCap)
		if err != nil {
			t.Fatalf("re-decoding accepted frame: %v", err)
		}
		if again.Type != got.Type || again.Flags != got.Flags || !bytes.Equal(again.Payload, got.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", got, again)
		}

		// Payload decoders must be total: no panics, no unbounded work.
		switch got.Type {
		case TypeHello:
			_, _ = DecodeHello(got.Payload)
		case TypeSensorChunk:
			_, _ = DecodeSensorChunk(got.Payload)
		case TypeFieldChunk:
			_, _ = DecodeFieldChunk(got.Payload)
		case TypeAudioChunk:
			_, _ = DecodeAudioChunk(got.Payload)
		case TypeSegmentMarks:
			_, _ = DecodeSegmentMarks(got.Payload)
		case TypeFinish:
			_, _ = DecodeFinish(got.Payload)
		case TypeError:
			_, _ = DecodeError(got.Payload)
		}
	})
}

// FuzzFrameReaderMatchesReadFrame holds the listener's buffer-reusing
// reader to ReadFrame: read frame by frame through both, every frame's
// type, flags, payload bytes and error must match, so a reused buffer
// never changes what is decoded.
func FuzzFrameReaderMatchesReadFrame(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	// Multi-frame streams: a payload followed by a smaller one is where
	// stale bytes from an earlier frame would show. Every third seed is
	// an intact frame.
	var forward, backward []byte
	for i := 0; i+2 < len(seeds); i += 3 {
		forward = append(forward, seeds[i]...)
		backward = append(bytes.Clone(seeds[i]), backward...)
	}
	var big bytes.Buffer
	if err := WriteFrame(&big, Frame{Type: TypeAudioChunk, Payload: EncodeAudioChunk(AudioChunk{
		Kind: AudioVoice, Rate: 16000, Samples: make([]float64, 512),
	})}); err != nil {
		f.Fatalf("seed WriteFrame: %v", err)
	}
	f.Add(forward)
	f.Add(backward)
	f.Add(append(big.Bytes(), forward...))

	f.Fuzz(func(t *testing.T, data []byte) {
		const payloadCap = 1 << 16
		ref := bytes.NewReader(data)
		fr := NewFrameReader(bytes.NewReader(data), payloadCap)
		for i := 0; ; i++ {
			want, wantErr := ReadFrame(ref, payloadCap)
			got, gotErr := fr.Next()
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("frame %d: ReadFrame error %v, FrameReader error %v", i, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if got.Type != want.Type || got.Flags != want.Flags || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d diverged: ReadFrame %+v, FrameReader %+v", i, want, got)
			}
		}
	})
}
