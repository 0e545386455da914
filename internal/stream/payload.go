package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
)

// SensorKind names the inertial/magnetic channel a sensor chunk extends.
type SensorKind uint8

// Sensor channels.
const (
	SensorGyro SensorKind = iota
	SensorAccel
	SensorMag
)

// String implements fmt.Stringer.
func (k SensorKind) String() string {
	switch k {
	case SensorGyro:
		return "gyro"
	case SensorAccel:
		return "accel"
	case SensorMag:
		return "mag"
	default:
		return "unknown"
	}
}

// AudioKind names the audio channel an audio chunk extends.
type AudioKind uint8

// Audio channels.
const (
	AudioCapture AudioKind = iota
	AudioVoice
)

// String implements fmt.Stringer.
func (k AudioKind) String() string {
	switch k {
	case AudioCapture:
		return "capture"
	case AudioVoice:
		return "voice"
	default:
		return "unknown"
	}
}

// Hello opens a session: the identity claim and the capture's ranging
// pilot, plus an optional client-minted trace ID (the streaming
// equivalent of the X-Request-ID header; empty lets the server mint).
type Hello struct {
	TraceID     string
	ClaimedUser string
	// PilotHz is the ranging pilot frequency of the capture.
	PilotHz float64 // unit: Hz
}

// Sample is one sensor sample on the wire (time plus a 3-axis reading;
// units are the channel's native ones, as in the JSON protocol).
type Sample struct {
	T       float64 // unit: s
	X, Y, Z float64
}

// SensorChunk extends one sensor channel.
type SensorChunk struct {
	Kind    SensorKind
	Samples []Sample
}

// FieldPoint is one sound-field measurement on the wire.
type FieldPoint struct {
	AngleDeg float64 // unit: deg
	FreqHz   float64 // unit: Hz
	LevelDB  float64 // unit: dB
}

// FieldChunk extends the sound-field sweep.
type FieldChunk struct {
	Points []FieldPoint
}

// AudioChunk extends one audio channel with raw samples. Rate repeats on
// every chunk of a channel and must not change mid-stream.
type AudioChunk struct {
	Kind AudioKind
	// Rate is the channel's sampling rate.
	Rate float64 // unit: Hz
	// Samples are normalized PCM samples in [-1, 1].
	Samples []float64 // unit: dimensionless
}

// SegmentMarks bounds the ranging sweep segment inside the capture.
type SegmentMarks struct {
	SweepStart float64 // unit: s
	SweepEnd   float64 // unit: s
}

// Finish seals the session: the SHA-256 session digest over every data
// frame sent before it (see SessionDigest) and the number of those
// frames. The server refuses to decide a session whose received bytes do
// not reproduce the digest.
type Finish struct {
	Digest [sha256.Size]byte
	Frames uint32
}

// ErrorInfo is the server's refusal payload: an HTTP-equivalent status
// code, an optional retry hint, and the same JSON error envelope the
// HTTP path returns (protocol.VerifyResponse with Error set).
type ErrorInfo struct {
	// Status is the HTTP-equivalent status code (400, 429, 503, ...).
	Status uint16
	// RetryAfterSec is the server's retry hint in whole seconds (0 =
	// none), mirroring the Retry-After header of the HTTP path.
	RetryAfterSec uint16 // unit: s
	// Envelope is the JSON error envelope.
	Envelope []byte
}

// Default chunk sizes the client-side bridge (internal/protocol) uses
// when slicing a session into frames. Sensor chunks stay small so the
// magnetometer channel — the earliest decisive evidence — reaches the
// server in many increments; audio ships in bulk because nothing decides
// on a partial signal.
const (
	DefSensorChunkSamples = 64
	DefFieldChunkPoints   = 16
	DefAudioChunkSamples  = 8192
)

// payloadReader is a bounds-checked cursor over a frame payload.
type payloadReader struct {
	buf  []byte
	off  int
	what string
}

func (r *payloadReader) fail(field string) error {
	return fmt.Errorf("stream: %s payload: truncated at %s (offset %d of %d)",
		r.what, field, r.off, len(r.buf))
}

func (r *payloadReader) u8(field string) (uint8, error) {
	if r.off+1 > len(r.buf) {
		return 0, r.fail(field)
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *payloadReader) u16(field string) (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, r.fail(field)
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *payloadReader) u32(field string) (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, r.fail(field)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *payloadReader) f64(field string) (float64, error) {
	if r.off+8 > len(r.buf) {
		return 0, r.fail(field)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

func (r *payloadReader) bytes(field string, n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, r.fail(field)
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

// leftover reports an error when payload bytes remain unconsumed — a
// malformed (or hostile) frame, not padding.
func (r *payloadReader) leftover() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("stream: %s payload: %d trailing bytes", r.what, len(r.buf)-r.off)
	}
	return nil
}

// elems validates a declared element count against the bytes actually
// present, so a hostile count cannot drive a huge allocation. The count
// is compared with the elements present rather than multiplied out: on
// a 32-bit int, count*elemBytes wraps, and a count of 2^29+4 audio
// samples would pass as 32 bytes.
func (r *payloadReader) elems(field string, count uint32, elemBytes int) (int, error) {
	if remaining := len(r.buf) - r.off; remaining%elemBytes != 0 || uint64(count) != uint64(remaining/elemBytes) {
		return 0, fmt.Errorf("stream: %s payload: %s declares %d elements (%d bytes) but %d bytes follow",
			r.what, field, count, uint64(count)*uint64(elemBytes), remaining)
	}
	return int(count), nil
}

// rest returns the payload bytes not yet read and consumes them.
func (r *payloadReader) rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// f64At decodes the little-endian float64 at b[off:].
func f64At(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// maxStringBytes bounds the hello's string fields; a user name or trace
// ID is never longer.
const maxStringBytes = 1 << 10

// EncodeHello builds a TypeHello payload.
func EncodeHello(h Hello) ([]byte, error) {
	if len(h.TraceID) > maxStringBytes || len(h.ClaimedUser) > maxStringBytes {
		return nil, fmt.Errorf("stream: hello strings exceed %d bytes", maxStringBytes)
	}
	buf := appendString(nil, h.TraceID)
	buf = appendString(buf, h.ClaimedUser)
	return appendF64(buf, h.PilotHz), nil
}

// DecodeHello parses a TypeHello payload.
func DecodeHello(p []byte) (Hello, error) {
	r := &payloadReader{buf: p, what: "hello"}
	var h Hello
	for _, dst := range []*string{&h.TraceID, &h.ClaimedUser} {
		n, err := r.u16("string length")
		if err != nil {
			return Hello{}, err
		}
		if n > maxStringBytes {
			return Hello{}, fmt.Errorf("stream: hello string of %d bytes exceeds %d", n, maxStringBytes)
		}
		b, err := r.bytes("string", int(n))
		if err != nil {
			return Hello{}, err
		}
		*dst = string(b)
	}
	var err error
	if h.PilotHz, err = r.f64("pilot_hz"); err != nil {
		return Hello{}, err
	}
	return h, r.leftover()
}

// EncodeSensorChunk builds a TypeSensorChunk payload.
func EncodeSensorChunk(c SensorChunk) []byte {
	buf := []byte{byte(c.Kind)}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Samples)))
	for _, s := range c.Samples {
		buf = appendF64(buf, s.T)
		buf = appendF64(buf, s.X)
		buf = appendF64(buf, s.Y)
		buf = appendF64(buf, s.Z)
	}
	return buf
}

// sensorSampleBytes is one sensor sample on the wire: t, x, y, z.
const sensorSampleBytes = 32

// SensorSamples are a checked sensor chunk's samples still in wire
// form: they alias the payload, which holds exactly Len of them.
type SensorSamples struct{ b []byte }

// Len returns the number of samples.
func (s SensorSamples) Len() int { return len(s.b) / sensorSampleBytes }

// At decodes sample i.
func (s SensorSamples) At(i int) Sample {
	v := s.b[sensorSampleBytes*i : sensorSampleBytes*i+sensorSampleBytes]
	return Sample{T: f64At(v, 0), X: f64At(v, 8), Y: f64At(v, 16), Z: f64At(v, 24)}
}

// ParseSensorChunk checks a TypeSensorChunk payload and returns its kind
// and its samples undecoded, so a caller can decode them with At
// straight into storage of its own. DecodeSensorChunk is this function
// with a fresh slice as the storage.
func ParseSensorChunk(p []byte) (SensorKind, SensorSamples, error) {
	r := &payloadReader{buf: p, what: "sensor_chunk"}
	kind, err := r.u8("kind")
	if err != nil {
		return 0, SensorSamples{}, err
	}
	if SensorKind(kind) > SensorMag {
		return 0, SensorSamples{}, fmt.Errorf("stream: sensor_chunk payload: unknown sensor kind %d", kind)
	}
	count, err := r.u32("count")
	if err != nil {
		return 0, SensorSamples{}, err
	}
	if _, err := r.elems("count", count, sensorSampleBytes); err != nil {
		return 0, SensorSamples{}, err
	}
	return SensorKind(kind), SensorSamples{r.rest()}, nil
}

// DecodeSensorChunk parses a TypeSensorChunk payload.
func DecodeSensorChunk(p []byte) (SensorChunk, error) {
	kind, ss, err := ParseSensorChunk(p)
	if err != nil {
		return SensorChunk{}, err
	}
	c := SensorChunk{Kind: kind, Samples: make([]Sample, ss.Len())}
	for i := range c.Samples {
		c.Samples[i] = ss.At(i)
	}
	return c, nil
}

// EncodeFieldChunk builds a TypeFieldChunk payload.
func EncodeFieldChunk(c FieldChunk) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(c.Points)))
	for _, pt := range c.Points {
		buf = appendF64(buf, pt.AngleDeg)
		buf = appendF64(buf, pt.FreqHz)
		buf = appendF64(buf, pt.LevelDB)
	}
	return buf
}

// fieldPointBytes is one sound-field point on the wire: angle,
// frequency, level.
const fieldPointBytes = 24

// FieldPoints are a checked field chunk's points still in wire form:
// they alias the payload, which holds exactly Len of them.
type FieldPoints struct{ b []byte }

// Len returns the number of points.
func (f FieldPoints) Len() int { return len(f.b) / fieldPointBytes }

// At decodes point i.
func (f FieldPoints) At(i int) FieldPoint {
	v := f.b[fieldPointBytes*i : fieldPointBytes*i+fieldPointBytes]
	return FieldPoint{AngleDeg: f64At(v, 0), FreqHz: f64At(v, 8), LevelDB: f64At(v, 16)}
}

// ParseFieldChunk checks a TypeFieldChunk payload and returns its points
// undecoded, the way ParseSensorChunk does.
func ParseFieldChunk(p []byte) (FieldPoints, error) {
	r := &payloadReader{buf: p, what: "field_chunk"}
	count, err := r.u32("count")
	if err != nil {
		return FieldPoints{}, err
	}
	if _, err := r.elems("count", count, fieldPointBytes); err != nil {
		return FieldPoints{}, err
	}
	return FieldPoints{r.rest()}, nil
}

// DecodeFieldChunk parses a TypeFieldChunk payload.
func DecodeFieldChunk(p []byte) (FieldChunk, error) {
	pts, err := ParseFieldChunk(p)
	if err != nil {
		return FieldChunk{}, err
	}
	c := FieldChunk{Points: make([]FieldPoint, pts.Len())}
	for i := range c.Points {
		c.Points[i] = pts.At(i)
	}
	return c, nil
}

// EncodeAudioChunk builds a TypeAudioChunk payload.
func EncodeAudioChunk(c AudioChunk) []byte {
	buf := []byte{byte(c.Kind)}
	buf = appendF64(buf, c.Rate)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Samples)))
	for _, s := range c.Samples {
		buf = appendF64(buf, s)
	}
	return buf
}

// AudioSamples are a checked audio chunk's samples still in wire form:
// they alias the payload, which holds exactly Len of them.
type AudioSamples struct{ b []byte }

// Len returns the number of samples.
func (a AudioSamples) Len() int { return len(a.b) / 8 }

// Into decodes the samples into dst, which must have length Len. Every
// element of dst is written, so whatever dst held before (a recycled
// block's last chunk) never shows through.
func (a AudioSamples) Into(dst []float64) {
	b := a.b[:8*len(dst)]
	for i := range dst {
		dst[i] = f64At(b, 8*i)
	}
}

// ParseAudioChunk checks a TypeAudioChunk payload and returns its kind
// and rate, with Samples nil, and its samples undecoded, so a caller can
// decode them with Into straight into storage of its own.
// DecodeAudioChunk is this function with a fresh slice as the storage.
func ParseAudioChunk(p []byte) (AudioChunk, AudioSamples, error) {
	r := &payloadReader{buf: p, what: "audio_chunk"}
	kind, err := r.u8("kind")
	if err != nil {
		return AudioChunk{}, AudioSamples{}, err
	}
	if AudioKind(kind) > AudioVoice {
		return AudioChunk{}, AudioSamples{}, fmt.Errorf("stream: audio_chunk payload: unknown audio kind %d", kind)
	}
	c := AudioChunk{Kind: AudioKind(kind)}
	if c.Rate, err = r.f64("rate"); err != nil {
		return AudioChunk{}, AudioSamples{}, err
	}
	count, err := r.u32("count")
	if err != nil {
		return AudioChunk{}, AudioSamples{}, err
	}
	if _, err := r.elems("count", count, 8); err != nil {
		return AudioChunk{}, AudioSamples{}, err
	}
	return c, AudioSamples{r.rest()}, nil
}

// DecodeAudioChunk parses a TypeAudioChunk payload.
func DecodeAudioChunk(p []byte) (AudioChunk, error) {
	c, as, err := ParseAudioChunk(p)
	if err != nil {
		return AudioChunk{}, err
	}
	c.Samples = make([]float64, as.Len())
	as.Into(c.Samples)
	return c, nil
}

// EncodeSegmentMarks builds a TypeSegmentMarks payload.
func EncodeSegmentMarks(m SegmentMarks) []byte {
	return appendF64(appendF64(nil, m.SweepStart), m.SweepEnd)
}

// DecodeSegmentMarks parses a TypeSegmentMarks payload.
func DecodeSegmentMarks(p []byte) (SegmentMarks, error) {
	r := &payloadReader{buf: p, what: "segment_marks"}
	var m SegmentMarks
	var err error
	if m.SweepStart, err = r.f64("sweep_start"); err != nil {
		return SegmentMarks{}, err
	}
	if m.SweepEnd, err = r.f64("sweep_end"); err != nil {
		return SegmentMarks{}, err
	}
	return m, r.leftover()
}

// EncodeFinish builds a TypeFinish payload.
func EncodeFinish(f Finish) []byte {
	buf := make([]byte, 0, sha256.Size+4)
	buf = append(buf, f.Digest[:]...)
	return binary.LittleEndian.AppendUint32(buf, f.Frames)
}

// DecodeFinish parses a TypeFinish payload.
func DecodeFinish(p []byte) (Finish, error) {
	r := &payloadReader{buf: p, what: "finish"}
	var f Finish
	d, err := r.bytes("digest", sha256.Size)
	if err != nil {
		return Finish{}, err
	}
	copy(f.Digest[:], d)
	if f.Frames, err = r.u32("frames"); err != nil {
		return Finish{}, err
	}
	return f, r.leftover()
}

// EncodeError builds a TypeError payload.
func EncodeError(e ErrorInfo) []byte {
	buf := binary.LittleEndian.AppendUint16(nil, e.Status)
	buf = binary.LittleEndian.AppendUint16(buf, e.RetryAfterSec)
	return append(buf, e.Envelope...)
}

// DecodeError parses a TypeError payload.
func DecodeError(p []byte) (ErrorInfo, error) {
	r := &payloadReader{buf: p, what: "error"}
	var e ErrorInfo
	var err error
	if e.Status, err = r.u16("status"); err != nil {
		return ErrorInfo{}, err
	}
	if e.RetryAfterSec, err = r.u16("retry_after"); err != nil {
		return ErrorInfo{}, err
	}
	e.Envelope = p[r.off:]
	return e, nil
}

// SessionDigest accumulates the SHA-256 session digest: every data frame
// (type, flags, payload — the CRC-covered bytes) in send order. Both
// sides run one; the finish frame carries the client's sum and the
// server refuses the session unless its own matches.
type SessionDigest struct {
	hasher hash.Hash
	frames uint32
	// head holds a frame's type and flags on their way to the hasher:
	// a slice of a local would escape through the hash.Hash interface
	// and cost an allocation per frame.
	head [2]byte
}

// NewSessionDigest returns an empty session digest.
func NewSessionDigest() *SessionDigest {
	return &SessionDigest{hasher: sha256.New()}
}

// Add folds one data frame into the digest.
func (d *SessionDigest) Add(f Frame) {
	d.head = [2]byte{byte(f.Type), f.Flags}
	d.hasher.Write(d.head[:])
	d.hasher.Write(f.Payload)
	d.frames++
}

// Frames returns how many frames have been folded in.
func (d *SessionDigest) Frames() uint32 { return d.frames }

// Sum returns the current digest without resetting it.
func (d *SessionDigest) Sum() [sha256.Size]byte {
	var out [sha256.Size]byte
	copy(out[:], d.hasher.Sum(nil))
	return out
}
