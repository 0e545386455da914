package protocol

import (
	"context"
	"encoding/json"
	"fmt"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/geometry"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/stream"
)

// This file bridges the binary streaming protocol (internal/stream) to
// the JSON wire types, so both transports assemble byte-identical
// core.SessionData: the client slices a VerifyRequest into frames with
// StreamFrames (decoding the WAV payloads locally — the samples it ships
// are exactly the float64s the HTTP server would decode), and the server
// feeds arriving frames into a core.StreamVerifier with ApplyStreamFrame.

// StreamFrames slices a verification request into the streaming
// protocol's frame sequence: hello, segment marks, interleaved sensor
// chunks (magnetometer leading — it carries the earliest decisive
// evidence), the sound-field sweep, the ranging capture, the passphrase
// voice, and a finish frame sealing everything under the session digest.
func StreamFrames(traceID string, req *VerifyRequest) ([]stream.Frame, error) {
	if req == nil {
		return nil, fmt.Errorf("protocol: nil request")
	}
	hello, err := stream.EncodeHello(stream.Hello{
		TraceID:     traceID,
		ClaimedUser: req.ClaimedUser,
		PilotHz:     req.PilotHz,
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding hello: %w", err)
	}
	frames := []stream.Frame{
		{Type: stream.TypeHello, Payload: hello},
		{Type: stream.TypeSegmentMarks, Payload: stream.EncodeSegmentMarks(stream.SegmentMarks{
			SweepStart: req.SweepStart, SweepEnd: req.SweepEnd,
		})},
	}
	frames = append(frames, interleaveSensors(req)...)
	frames = append(frames, fieldFrames(req.Field)...)

	for _, ch := range []struct {
		kind stream.AudioKind
		wav  []byte
		what string
	}{
		{stream.AudioCapture, req.CaptureWAV, "capture"},
		{stream.AudioVoice, req.VoiceWAV, "voice"},
	} {
		raw, err := decodeB64(ch.wav)
		if err != nil {
			return nil, fmt.Errorf("protocol: %s payload: %w", ch.what, err)
		}
		sig, err := audio.DecodeWAV(raw)
		if err != nil {
			return nil, fmt.Errorf("protocol: decoding %s: %w", ch.what, err)
		}
		frames = append(frames, audioFrames(ch.kind, sig)...)
	}

	digest := stream.NewSessionDigest()
	for _, f := range frames {
		digest.Add(f)
	}
	frames = append(frames, stream.Frame{Type: stream.TypeFinish, Payload: stream.EncodeFinish(stream.Finish{
		Digest: digest.Sum(),
		Frames: digest.Frames(),
	})})
	return frames, nil
}

// interleaveSensors round-robins chunks of the three sensor channels,
// magnetometer first, so the earliest decisive evidence (§IV-B3's
// loudspeaker signature) is also the earliest on the wire.
func interleaveSensors(req *VerifyRequest) []stream.Frame {
	channels := [][]stream.Frame{
		sensorFrames(stream.SensorMag, req.Mag),
		sensorFrames(stream.SensorGyro, req.Gyro),
		sensorFrames(stream.SensorAccel, req.Accel),
	}
	var out []stream.Frame
	for i := 0; ; i++ {
		emitted := false
		for _, ch := range channels {
			if i < len(ch) {
				out = append(out, ch[i])
				emitted = true
			}
		}
		if !emitted {
			return out
		}
	}
}

// sensorFrames chunks one sensor channel. An empty channel still emits
// one empty closing chunk so the evaluator can admit stages waiting on
// it.
func sensorFrames(kind stream.SensorKind, ss []SampleJSON) []stream.Frame {
	var out []stream.Frame
	for off := 0; ; off += stream.DefSensorChunkSamples {
		end := off + stream.DefSensorChunkSamples
		if end > len(ss) {
			end = len(ss)
		}
		c := stream.SensorChunk{Kind: kind, Samples: make([]stream.Sample, 0, end-off)}
		for _, s := range ss[off:end] {
			c.Samples = append(c.Samples, stream.Sample{T: s.T, X: s.X, Y: s.Y, Z: s.Z})
		}
		f := stream.Frame{Type: stream.TypeSensorChunk, Payload: stream.EncodeSensorChunk(c)}
		if end == len(ss) {
			f.Flags = stream.FlagLast
			return append(out, f)
		}
		out = append(out, f)
	}
}

// fieldFrames chunks the sound-field sweep.
func fieldFrames(ms []FieldJSON) []stream.Frame {
	var out []stream.Frame
	for off := 0; ; off += stream.DefFieldChunkPoints {
		end := off + stream.DefFieldChunkPoints
		if end > len(ms) {
			end = len(ms)
		}
		c := stream.FieldChunk{Points: make([]stream.FieldPoint, 0, end-off)}
		for _, m := range ms[off:end] {
			c.Points = append(c.Points, stream.FieldPoint{AngleDeg: m.AngleDeg, FreqHz: m.FreqHz, LevelDB: m.LevelDB})
		}
		f := stream.Frame{Type: stream.TypeFieldChunk, Payload: stream.EncodeFieldChunk(c)}
		if end == len(ms) {
			f.Flags = stream.FlagLast
			return append(out, f)
		}
		out = append(out, f)
	}
}

// audioFrames chunks one audio channel. The samples are the WAV-decoded
// float64s, so the server reassembles exactly what the HTTP path's
// DecodeWAV would produce — the bit-parity guarantee across transports.
func audioFrames(kind stream.AudioKind, sig *audio.Signal) []stream.Frame {
	var out []stream.Frame
	for off := 0; ; off += stream.DefAudioChunkSamples {
		end := off + stream.DefAudioChunkSamples
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		c := stream.AudioChunk{Kind: kind, Rate: sig.Rate, Samples: sig.Samples[off:end]}
		f := stream.Frame{Type: stream.TypeAudioChunk, Payload: stream.EncodeAudioChunk(c)}
		if end == len(sig.Samples) {
			f.Flags = stream.FlagLast
			return append(out, f)
		}
		out = append(out, f)
	}
}

// ApplyStreamFrame feeds one client data frame into the incremental
// evaluator. A non-nil decision is an early REJECT. Nothing it passes on
// aliases f.Payload, so the caller may reuse the payload buffer as soon
// as it returns: sensor and field chunks decode straight onto their
// channel's trace, and audio chunks into storage the verifier lends
// (AudioBlock). Finish, decision and error frames are not data: the
// connection handler owns them (the finish digest check needs the
// handler's byte-level accumulator).
func ApplyStreamFrame(ctx context.Context, v *core.StreamVerifier, f stream.Frame) (*core.Decision, error) {
	last := f.Flags&stream.FlagLast != 0
	switch f.Type {
	case stream.TypeHello:
		h, err := stream.DecodeHello(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, v.OfferHello(ctx, h.ClaimedUser, h.PilotHz)
	case stream.TypeSegmentMarks:
		m, err := stream.DecodeSegmentMarks(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, v.SetMarks(ctx, m.SweepStart, m.SweepEnd)
	case stream.TypeSensorChunk:
		kind, ss, err := stream.ParseSensorChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		switch kind {
		case stream.SensorGyro:
			return v.OfferGyro(ctx, decodeSensors(v.GyroRoom(ss.Len()), ss), last)
		case stream.SensorAccel:
			return v.OfferAccel(ctx, decodeSensors(v.AccelRoom(ss.Len()), ss), last)
		case stream.SensorMag:
			return v.OfferMag(ctx, decodeSensors(v.MagRoom(ss.Len()), ss), last)
		default:
			return nil, fmt.Errorf("protocol: unroutable sensor kind %d", kind)
		}
	case stream.TypeFieldChunk:
		pts, err := stream.ParseFieldChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		points := v.FieldRoom(pts.Len())
		for i := range points {
			points[i] = soundfield.Measurement(pts.At(i))
		}
		return v.OfferField(ctx, points, last)
	case stream.TypeAudioChunk:
		c, as, err := stream.ParseAudioChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		samples := v.AudioBlock(as.Len())
		as.Into(samples)
		if c.Kind == stream.AudioCapture {
			return v.OfferCapture(ctx, c.Rate, samples, last)
		}
		return v.OfferVoice(ctx, c.Rate, samples, last)
	default:
		return nil, fmt.Errorf("protocol: %v frame is not session data", f.Type)
	}
}

// decodeSensors decodes a chunk's samples into dst, the room a trace
// made for them, and returns dst.
func decodeSensors(dst []sensors.Sample, ss stream.SensorSamples) []sensors.Sample {
	for i := range dst {
		s := ss.At(i)
		dst[i] = sensors.Sample{T: s.T, V: geometry.Vec3{X: s.X, Y: s.Y, Z: s.Z}}
	}
	return dst
}

// StreamDecision wraps a verification response in a decision frame;
// early marks a verdict emitted before the client's finish frame.
func StreamDecision(resp *VerifyResponse, early bool) (stream.Frame, error) {
	payload, err := json.Marshal(resp)
	if err != nil {
		return stream.Frame{}, fmt.Errorf("protocol: encoding stream decision: %w", err)
	}
	f := stream.Frame{Type: stream.TypeDecision, Payload: payload}
	if early {
		f.Flags = stream.FlagEarly
	}
	return f, nil
}

// DecisionFromStreamFrame parses a decision frame back into the JSON
// response shape, reporting whether the server decided early.
func DecisionFromStreamFrame(f stream.Frame) (resp *VerifyResponse, early bool, err error) {
	if f.Type != stream.TypeDecision {
		return nil, false, fmt.Errorf("protocol: expected decision frame, got %v", f.Type)
	}
	resp = &VerifyResponse{}
	if err := json.Unmarshal(f.Payload, resp); err != nil {
		return nil, false, fmt.Errorf("protocol: parsing stream decision: %w", err)
	}
	return resp, f.Flags&stream.FlagEarly != 0, nil
}

// StreamError wraps a refusal in an error frame carrying the
// HTTP-equivalent status, an optional Retry-After hint in seconds, and
// the same JSON envelope the server's HTTP routes send.
func StreamError(status, retryAfterSec int, resp *VerifyResponse) (stream.Frame, error) {
	envelope, err := json.Marshal(resp)
	if err != nil {
		return stream.Frame{}, fmt.Errorf("protocol: encoding stream error: %w", err)
	}
	return stream.Frame{Type: stream.TypeError, Payload: stream.EncodeError(stream.ErrorInfo{
		Status:        uint16(status),
		RetryAfterSec: uint16(retryAfterSec),
		Envelope:      envelope,
	})}, nil
}

// ErrorFromStreamFrame parses an error frame into its status, retry
// hint, and JSON envelope.
func ErrorFromStreamFrame(f stream.Frame) (status, retryAfterSec int, resp *VerifyResponse, err error) {
	if f.Type != stream.TypeError {
		return 0, 0, nil, fmt.Errorf("protocol: expected error frame, got %v", f.Type)
	}
	info, err := stream.DecodeError(f.Payload)
	if err != nil {
		return 0, 0, nil, err
	}
	resp = &VerifyResponse{}
	if len(info.Envelope) > 0 {
		if err := json.Unmarshal(info.Envelope, resp); err != nil {
			return 0, 0, nil, fmt.Errorf("protocol: parsing stream error envelope: %w", err)
		}
	}
	return int(info.Status), int(info.RetryAfterSec), resp, nil
}
