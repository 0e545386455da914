package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, Version); err != nil {
		t.Fatalf("WriteHandshake: %v", err)
	}
	v, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatalf("ReadHandshake: %v", err)
	}
	if v != Version {
		t.Fatalf("negotiated version %d, want %d", v, Version)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	if _, err := ReadHandshake(bytes.NewReader([]byte("POST /ver"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error = %v, want ErrBadMagic", err)
	}
}

func TestNegotiateVersion(t *testing.T) {
	for _, tc := range []struct{ client, want uint8 }{
		{0, 0}, {1, 1}, {Version, Version}, {Version + 5, Version},
	} {
		if got := NegotiateVersion(tc.client); got != tc.want {
			t.Errorf("NegotiateVersion(%d) = %d, want %d", tc.client, got, tc.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeHello, Payload: mustEncodeHello(t, Hello{TraceID: "abc", ClaimedUser: "victim", PilotHz: 19000})},
		{Type: TypeSensorChunk, Flags: FlagLast, Payload: EncodeSensorChunk(SensorChunk{
			Kind: SensorMag, Samples: []Sample{{T: 0.01, X: 1, Y: -2, Z: 3.5}},
		})},
		{Type: TypeFinish, Payload: EncodeFinish(Finish{Frames: 7})},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame(%v): %v", f.Type, err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame(%v): %v", want.Type, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame mismatch: got %+v want %+v", got, want)
		}
	}
}

func mustEncodeHello(t *testing.T, h Hello) []byte {
	t.Helper()
	p, err := EncodeHello(h)
	if err != nil {
		t.Fatalf("EncodeHello: %v", err)
	}
	return p
}

func TestReadFrameRejectsCorruptCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypeSegmentMarks, Payload: EncodeSegmentMarks(SegmentMarks{SweepStart: 1, SweepEnd: 2})}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()
	raw[12] ^= 0x40 // flip a payload bit; the trailing CRC no longer matches
	if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame error = %v, want ErrChecksum", err)
	}
}

func TestReadFrameRejectsOversizedDeclaredLength(t *testing.T) {
	raw := []byte{byte(TypeAudioChunk), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized frame error = %v, want ErrFrameTooBig", err)
	}
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	raw := make([]byte, 14)
	raw[0] = 0xee
	if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrUnknownFrame) {
		t.Fatalf("unknown type error = %v, want ErrUnknownFrame", err)
	}
}

func TestReadFrameRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypeFieldChunk, Payload: EncodeFieldChunk(FieldChunk{
		Points: []FieldPoint{{AngleDeg: 30, FreqHz: 1000, LevelDB: 60}},
	})}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut]), 0); err == nil {
			t.Fatalf("truncation at %d bytes read successfully", cut)
		} else if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("truncation at %d bytes: unexpected error %v", cut, err)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	hello := Hello{TraceID: "t-1", ClaimedUser: "victim", PilotHz: 19000}
	hp := mustEncodeHello(t, hello)
	if got, err := DecodeHello(hp); err != nil || got != hello {
		t.Fatalf("hello round trip: got %+v err %v", got, err)
	}

	sc := SensorChunk{Kind: SensorAccel, Samples: []Sample{
		{T: 0, X: 0.1, Y: 0.2, Z: 9.8}, {T: 0.01, X: math.Pi, Y: -1, Z: 0},
	}}
	gotSC, err := DecodeSensorChunk(EncodeSensorChunk(sc))
	if err != nil || gotSC.Kind != sc.Kind || len(gotSC.Samples) != len(sc.Samples) {
		t.Fatalf("sensor chunk round trip: got %+v err %v", gotSC, err)
	}
	for i := range sc.Samples {
		if gotSC.Samples[i] != sc.Samples[i] {
			t.Fatalf("sensor sample %d: got %+v want %+v", i, gotSC.Samples[i], sc.Samples[i])
		}
	}

	fc := FieldChunk{Points: []FieldPoint{{AngleDeg: 0, FreqHz: 100, LevelDB: 65.5}}}
	gotFC, err := DecodeFieldChunk(EncodeFieldChunk(fc))
	if err != nil || len(gotFC.Points) != 1 || gotFC.Points[0] != fc.Points[0] {
		t.Fatalf("field chunk round trip: got %+v err %v", gotFC, err)
	}

	ac := AudioChunk{Kind: AudioVoice, Rate: 16000, Samples: []float64{0.5, -0.25, 0}}
	gotAC, err := DecodeAudioChunk(EncodeAudioChunk(ac))
	if err != nil || gotAC.Kind != ac.Kind || len(gotAC.Samples) != 3 {
		t.Fatalf("audio chunk round trip: got %+v err %v", gotAC, err)
	}
	for i := range ac.Samples {
		if math.Float64bits(gotAC.Samples[i]) != math.Float64bits(ac.Samples[i]) {
			t.Fatalf("audio sample %d not bit-identical", i)
		}
	}

	marks := SegmentMarks{SweepStart: 0.2, SweepEnd: 2.3}
	if got, err := DecodeSegmentMarks(EncodeSegmentMarks(marks)); err != nil || got != marks {
		t.Fatalf("segment marks round trip: got %+v err %v", got, err)
	}

	fin := Finish{Frames: 42}
	copy(fin.Digest[:], bytes.Repeat([]byte{0xab}, len(fin.Digest)))
	if got, err := DecodeFinish(EncodeFinish(fin)); err != nil || got != fin {
		t.Fatalf("finish round trip: got %+v err %v", got, err)
	}

	ei := ErrorInfo{Status: 429, RetryAfterSec: 2, Envelope: []byte(`{"error":"overloaded"}`)}
	gotEI, err := DecodeError(EncodeError(ei))
	if err != nil || gotEI.Status != ei.Status || gotEI.RetryAfterSec != ei.RetryAfterSec ||
		!bytes.Equal(gotEI.Envelope, ei.Envelope) {
		t.Fatalf("error round trip: got %+v err %v", gotEI, err)
	}
}

func TestDecodeRejectsCountMismatch(t *testing.T) {
	// A sensor chunk declaring 1000 samples but carrying one sample's
	// bytes must fail without allocating for the declared count.
	p := EncodeSensorChunk(SensorChunk{Kind: SensorGyro, Samples: []Sample{{T: 1}}})
	p[1] = 0xe8 // count LE u32 at offset 1: 1 -> 1000
	p[2] = 0x03
	if _, err := DecodeSensorChunk(p); err == nil {
		t.Fatal("inflated sample count decoded successfully")
	}
	if _, err := DecodeAudioChunk([]byte{byte(AudioVoice), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("inflated audio count decoded successfully")
	}
}

// TestDecodeRejectsCountThatWrapsInt holds the count check to counts
// whose byte size wraps a 32-bit int to exactly the bytes present: a
// check that multiplies count by the element size lets them through on
// GOARCH=386, and the decoder's make then panics.
func TestDecodeRejectsCountThatWrapsInt(t *testing.T) {
	withCount := func(p []byte, off int, count uint32) []byte {
		binary.LittleEndian.PutUint32(p[off:], count)
		return p
	}
	audio := withCount(EncodeAudioChunk(AudioChunk{Kind: AudioCapture, Rate: 44100, Samples: make([]float64, 4)}), 9, 1<<29+4)
	if _, err := DecodeAudioChunk(audio); err == nil {
		t.Error("audio chunk declaring 2^29+4 samples over 32 bytes decoded")
	}
	sensor := withCount(EncodeSensorChunk(SensorChunk{Kind: SensorMag, Samples: make([]Sample, 1)}), 1, 1<<27+1)
	if _, err := DecodeSensorChunk(sensor); err == nil {
		t.Error("sensor chunk declaring 2^27+1 samples over 32 bytes decoded")
	}
	field := withCount(EncodeFieldChunk(FieldChunk{Points: make([]FieldPoint, 1)}), 0, 1<<29+1)
	if _, err := DecodeFieldChunk(field); err == nil {
		t.Error("field chunk declaring 2^29+1 points over 24 bytes decoded")
	}
}

func TestSessionDigestDetectsReorderAndTamper(t *testing.T) {
	f1 := Frame{Type: TypeSegmentMarks, Payload: EncodeSegmentMarks(SegmentMarks{SweepStart: 1, SweepEnd: 2})}
	f2 := Frame{Type: TypeSensorChunk, Flags: FlagLast, Payload: EncodeSensorChunk(SensorChunk{Kind: SensorMag})}

	sum := func(frames ...Frame) [32]byte {
		d := NewSessionDigest()
		for _, f := range frames {
			d.Add(f)
		}
		return d.Sum()
	}
	if sum(f1, f2) == sum(f2, f1) {
		t.Fatal("session digest ignores frame order")
	}
	tampered := f2
	tampered.Flags = 0
	if sum(f1, f2) == sum(f1, tampered) {
		t.Fatal("session digest ignores flag tampering")
	}
	d := NewSessionDigest()
	d.Add(f1)
	d.Add(f2)
	if d.Frames() != 2 {
		t.Fatalf("Frames() = %d, want 2", d.Frames())
	}
}

// TestSessionDigestAddDoesNotAllocate pins that folding a frame into
// the digest costs no allocation: both listeners do it for every frame.
func TestSessionDigestAddDoesNotAllocate(t *testing.T) {
	f := Frame{Type: TypeSensorChunk, Flags: FlagLast, Payload: EncodeSensorChunk(SensorChunk{Kind: SensorMag})}
	d := NewSessionDigest()
	if allocs := testing.AllocsPerRun(100, func() { d.Add(f) }); allocs != 0 {
		t.Errorf("Add allocates %v times per frame, want 0", allocs)
	}
	if d.Frames() != 101 {
		t.Errorf("Frames() = %d after 101 adds, want 101", d.Frames())
	}
}

// TestFrameReaderReusesItsBuffer pins the point of FrameReader: once its
// buffer has grown to the largest payload, reading a frame allocates
// nothing, and the wire-byte count covers every returned frame.
func TestFrameReaderReusesItsBuffer(t *testing.T) {
	f := Frame{Type: TypeAudioChunk, Payload: EncodeAudioChunk(AudioChunk{
		Kind: AudioCapture, Rate: 44100, Samples: make([]float64, DefAudioChunkSamples),
	})}
	const frames = 202
	var buf bytes.Buffer
	for i := 0; i < frames; i++ {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()), 0)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(frames-2, func() {
		var got Frame
		if got, err = fr.Next(); err == nil && !bytes.Equal(got.Payload, f.Payload) {
			err = errors.New("payload mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Next allocates %v times per frame with a warm buffer, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call on top of its runs, so the
	// reader has now returned every frame.
	if want := int64(frames) * f.WireSize(); fr.WireBytes() != want {
		t.Errorf("WireBytes = %d after %d frames, want %d", fr.WireBytes(), frames, want)
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next past the last frame = %v, want io.EOF", err)
	}
}

// TestFrameReaderResetStartsOver pins what a recycled reader promises
// the next connection: its wire-byte count, which the listener holds
// against the session byte budget, starts at 0; its payload buffer is
// kept, so the next frames allocate nothing; and a buffer grown past
// maxKeptPayloadBytes by an oversized frame is dropped.
func TestFrameReaderResetStartsOver(t *testing.T) {
	wire := func(samples int) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: TypeAudioChunk, Payload: EncodeAudioChunk(AudioChunk{
			Kind: AudioVoice, Rate: 16000, Samples: make([]float64, samples),
		})}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	small := wire(DefAudioChunkSamples)
	fr := NewFrameReader(bytes.NewReader(small), 0)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(small)
		fr.Reset(r)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reading a default audio chunk after Reset allocates %v times, want 0", allocs)
	}
	if got := fr.WireBytes(); got != int64(len(small)) {
		t.Errorf("WireBytes after Reset and one frame = %d, want %d", got, len(small))
	}

	big := wire(maxKeptPayloadBytes / 8)
	fr.Reset(bytes.NewReader(big))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	fr.Reset(bytes.NewReader(nil))
	if fr.WireBytes() != 0 {
		t.Errorf("WireBytes after Reset = %d, want 0", fr.WireBytes())
	}
	if cap(fr.buf) != 0 {
		t.Errorf("Reset kept a %d-byte payload buffer, over the %d-byte limit", cap(fr.buf), maxKeptPayloadBytes)
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next on the new, empty stream = %v, want io.EOF", err)
	}
}
