// Package stream implements the length-prefixed binary framing protocol
// the streaming verification path speaks (PROTOCOL.md): a magic + version
// handshake followed by typed, CRC-protected frames whose payloads carry
// one verification session in arrival order — hello, segment marks,
// interleaved sensor chunks, sound-field chunks, audio chunks, and a
// finish frame sealing the session under a SHA-256 digest. The server
// answers with a single decision or error frame.
//
// The package is pure wire format: it knows nothing about the pipeline.
// internal/protocol bridges frames to VerifyRequest/SessionData and
// internal/server, internal/client speak the protocol over TCP.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// magic opens both directions of the handshake. Four bytes, chosen to
// never collide with an HTTP method so a client pointed at the wrong
// listener fails fast.
var magic = [4]byte{'V', 'G', 'S', 'P'}

// Version is the protocol revision this package speaks. The handshake
// negotiates min(client, server); 0 signals refusal.
const Version uint8 = 1

// FrameType identifies a frame's payload codec.
type FrameType uint8

// Frame types. Types 1–6 flow client→server (session data), 7–8
// server→client (the reply).
const (
	TypeHello FrameType = iota + 1
	TypeSensorChunk
	TypeFieldChunk
	TypeAudioChunk
	TypeSegmentMarks
	TypeFinish
	TypeDecision
	TypeError
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeSensorChunk:
		return "sensor_chunk"
	case TypeFieldChunk:
		return "field_chunk"
	case TypeAudioChunk:
		return "audio_chunk"
	case TypeSegmentMarks:
		return "segment_marks"
	case TypeFinish:
		return "finish"
	case TypeDecision:
		return "decision"
	case TypeError:
		return "error"
	default:
		return "unknown"
	}
}

// Frame flags.
const (
	// FlagLast marks the final chunk of a frame's channel (the gyro
	// trace, the voice audio, ...): the channel is complete and the
	// incremental evaluator may admit every stage waiting on it.
	FlagLast uint8 = 1 << 0
	// FlagEarly marks a decision frame emitted before the finish frame
	// was processed — the early-exit path. Clients surface it as
	// "decided before the upload completed".
	FlagEarly uint8 = 1 << 1
)

// Frame is one protocol frame. On the wire:
//
//	type   uint8
//	flags  uint8
//	length uint64 LE  (payload bytes)
//	payload
//	crc32  uint32 LE  (IEEE, over type+flags+payload)
type Frame struct {
	Type    FrameType
	Flags   uint8
	Payload []byte
}

// frameOverheadBytes is the non-payload cost of a frame on the wire.
const frameOverheadBytes = 1 + 1 + 8 + 4

// WireSize returns the frame's total on-wire byte count.
func (f Frame) WireSize() int64 { return int64(len(f.Payload)) + frameOverheadBytes }

// DefMaxFrameBytes is the default payload cap ReadFrame enforces. The
// largest well-formed frame is an audio chunk (DefAudioChunkSamples
// float64s); 4 MiB leaves generous headroom while keeping a hostile
// length prefix from ballooning server memory.
const DefMaxFrameBytes = 4 << 20

// Protocol errors, each wrapped with frame context by ReadFrame.
var (
	ErrBadMagic     = errors.New("stream: bad protocol magic")
	ErrBadVersion   = errors.New("stream: unsupported protocol version")
	ErrFrameTooBig  = errors.New("stream: frame exceeds size limit")
	ErrChecksum     = errors.New("stream: frame checksum mismatch")
	ErrUnknownFrame = errors.New("stream: unknown frame type")
)

// WriteHandshake sends one direction of the opening exchange: the magic
// followed by the sender's protocol version (the client sends its
// highest supported; the server replies with the negotiated version, or
// 0 to refuse).
func WriteHandshake(w io.Writer, version uint8) error {
	var buf [5]byte
	copy(buf[:4], magic[:])
	buf[4] = version
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("stream: writing handshake: %w", err)
	}
	return nil
}

// ReadHandshake reads and validates one direction of the opening
// exchange, returning the peer's version byte (which may be 0: a
// server's refusal).
func ReadHandshake(r io.Reader) (uint8, error) {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("stream: reading handshake: %w", err)
	}
	if [4]byte(buf[:4]) != magic {
		return 0, ErrBadMagic
	}
	return buf[4], nil
}

// NegotiateVersion picks the version a server answers a client hello
// with: the highest revision both sides speak, or 0 (refusal) when the
// client is too old or too strange to serve.
func NegotiateVersion(client uint8) uint8 {
	if client < 1 {
		return 0
	}
	if client < Version {
		return client
	}
	return Version
}

// WriteFrame emits one frame.
func WriteFrame(w io.Writer, f Frame) error {
	header := make([]byte, 10)
	header[0] = byte(f.Type)
	header[1] = f.Flags
	binary.LittleEndian.PutUint64(header[2:], uint64(len(f.Payload)))
	crc := crc32.NewIEEE()
	crc.Write(header[:2])
	crc.Write(f.Payload)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	for _, part := range [][]byte{header, f.Payload, trailer[:]} {
		if _, err := w.Write(part); err != nil {
			return fmt.Errorf("stream: writing %v frame: %w", f.Type, err)
		}
	}
	return nil
}

// ReadFrame reads one frame, enforcing maxPayload (0 uses
// DefMaxFrameBytes) before allocating and verifying the trailing CRC
// before returning. Errors wrap the sentinel protocol errors above;
// anything else is a transport failure. The payload is freshly
// allocated; a caller reading many frames from one stream should use a
// FrameReader instead.
func ReadFrame(r io.Reader, maxPayload uint64) (Frame, error) {
	return NewFrameReader(r, maxPayload).Next()
}

// FrameReader reads a sequence of frames from one byte stream into a
// payload buffer it reuses. It enforces the payload cap before growing
// that buffer and verifies each frame's CRC before returning it, exactly
// as strictly as ReadFrame. Reset points it at the next stream, so one
// reader and its buffer can serve connection after connection.
//
// The Payload of a returned Frame aliases the buffer and is valid only
// until the next call to Next or Reset: a caller must copy out whatever
// it keeps. The Decode* functions of this package do (strings, digests
// and sample slices never alias their input), so decoding a frame before
// reading the next one is always safe; the samples the Parse* functions
// return alias the payload and share its lifetime.
type FrameReader struct {
	r         io.Reader
	max       uint64
	header    [10]byte
	trailer   [4]byte
	buf       []byte
	wireBytes int64
}

// NewFrameReader reads frames from r, enforcing maxPayload (0 uses
// DefMaxFrameBytes).
func NewFrameReader(r io.Reader, maxPayload uint64) *FrameReader {
	if maxPayload == 0 {
		maxPayload = DefMaxFrameBytes
	}
	return &FrameReader{r: r, max: maxPayload}
}

// maxKeptPayloadBytes is the largest payload buffer Reset keeps: twice
// a default audio chunk's payload (65,549 bytes), the largest frame a
// client slicing with the Def* chunk sizes sends. A reader that grew
// past it, up to the frame cap, for a larger or hostile frame drops the
// buffer, so a recycled reader never pins megabytes.
const maxKeptPayloadBytes = 128 << 10

// Reset makes fr read the frames of r from the start: the wire-byte
// count returns to 0, the payload cap stays, and the payload buffer is
// kept for the next frames unless it is larger than maxKeptPayloadBytes.
func (fr *FrameReader) Reset(r io.Reader) {
	fr.r, fr.wireBytes = r, 0
	if cap(fr.buf) > maxKeptPayloadBytes {
		fr.buf = nil
	}
}

// WireBytes returns the on-wire size of every frame Next has returned
// since the reader was made or last Reset.
func (fr *FrameReader) WireBytes() int64 { return fr.wireBytes }

// Next reads one frame. Errors wrap the sentinel protocol errors above;
// anything else is a transport failure.
func (fr *FrameReader) Next() (Frame, error) {
	header := fr.header[:]
	if _, err := io.ReadFull(fr.r, header); err != nil {
		return Frame{}, fmt.Errorf("stream: reading frame header: %w", err)
	}
	f := Frame{Type: FrameType(header[0]), Flags: header[1]}
	if f.Type < TypeHello || f.Type > TypeError {
		return Frame{}, fmt.Errorf("%w: type %d", ErrUnknownFrame, header[0])
	}
	length := binary.LittleEndian.Uint64(header[2:])
	if length > fr.max {
		return Frame{}, fmt.Errorf("%w: %v frame declares %d payload bytes (limit %d)",
			ErrFrameTooBig, f.Type, length, fr.max)
	}
	if length > 0 {
		if uint64(cap(fr.buf)) < length {
			fr.buf = make([]byte, length)
		}
		f.Payload = fr.buf[:length]
		if _, err := io.ReadFull(fr.r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("stream: reading %v frame payload: %w", f.Type, err)
		}
	}
	if _, err := io.ReadFull(fr.r, fr.trailer[:]); err != nil {
		return Frame{}, fmt.Errorf("stream: reading %v frame checksum: %w", f.Type, err)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(header[:2]), crc32.IEEETable, f.Payload)
	if crc != binary.LittleEndian.Uint32(fr.trailer[:]) {
		return Frame{}, fmt.Errorf("%w: %v frame", ErrChecksum, f.Type)
	}
	fr.wireBytes += f.WireSize()
	return f, nil
}
