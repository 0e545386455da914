// Package protocol defines the wire format between the mobile client and
// the verification server, mirroring the paper's prototype (§V): clients
// upload zipped (gzip), structured sensor-and-audio bundles; the server
// replies with the verification decision. JSON is used for the envelope
// and WAV for the audio payload, both gzip-compressed in transit.
package protocol

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/trajectory"
)

// MaxPayloadBytes bounds a decoded request to keep the server safe from
// decompression bombs.
const MaxPayloadBytes = 64 << 20

// VerifyRequest is one verification attempt as uploaded by the client.
type VerifyRequest struct {
	// ClaimedUser is the asserted identity.
	ClaimedUser string `json:"claimed_user"`
	// Gyro, Accel and Mag are the raw sensor traces.
	Gyro  []SampleJSON `json:"gyro"`
	Accel []SampleJSON `json:"accel"`
	Mag   []SampleJSON `json:"mag"`
	// SweepStart and SweepEnd bound the sweep segment, seconds.
	SweepStart float64 `json:"sweep_start"`
	SweepEnd   float64 `json:"sweep_end"`
	// PilotHz is the ranging pilot frequency used by the capture.
	PilotHz float64 `json:"pilot_hz"`
	// CaptureWAV is the base64 WAV of the ranging capture.
	CaptureWAV []byte `json:"capture_wav"`
	// Field is the sound-field sweep.
	Field []FieldJSON `json:"field"`
	// VoiceWAV is the base64 WAV of the spoken passphrase.
	VoiceWAV []byte `json:"voice_wav"`
}

// SampleJSON is one sensor sample on the wire.
type SampleJSON struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// FieldJSON is one sound-field measurement on the wire.
type FieldJSON struct {
	AngleDeg float64 `json:"angle_deg"`
	FreqHz   float64 `json:"freq_hz"`
	LevelDB  float64 `json:"level_db"`
}

// VerifyResponse is the server's decision.
type VerifyResponse struct {
	// Accepted is the final verdict.
	Accepted bool `json:"accepted"`
	// FailedStage names the first failing stage ("" when accepted).
	FailedStage string `json:"failed_stage,omitempty"`
	// Stages carries per-stage diagnostics.
	Stages []StageJSON `json:"stages"`
	// TraceID correlates the response with the server's log line and the
	// X-Request-ID header of the request that produced it.
	TraceID string `json:"trace_id,omitempty"`
	// ElapsedUS is the total pipeline latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
	// Error is set when the request could not be processed.
	Error string `json:"error,omitempty"`
}

// StageJSON is one stage result on the wire.
type StageJSON struct {
	Stage  string  `json:"stage"`
	Pass   bool    `json:"pass"`
	Score  float64 `json:"score"`
	Detail string  `json:"detail"`
	// ElapsedUS is the stage's processing time in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
}

// VoiceprintRequest is the voice-only baseline upload (the WeChat-style
// scheme the paper compares against in Fig. 15): just the claimed user
// and the passphrase audio.
type VoiceprintRequest struct {
	// ClaimedUser is the asserted identity.
	ClaimedUser string `json:"claimed_user"`
	// VoiceWAV is the base64 WAV of the spoken passphrase.
	VoiceWAV []byte `json:"voice_wav"`
}

// EncodeVoiceprint serializes and gzips a voiceprint request.
func EncodeVoiceprint(req *VoiceprintRequest) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(req); err != nil {
		return nil, fmt.Errorf("protocol: encoding voiceprint request: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("protocol: closing gzip stream: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeVoiceprint ungzips and parses a voiceprint request in one pass.
func DecodeVoiceprint(r io.Reader) (*VoiceprintRequest, error) {
	var req VoiceprintRequest
	if err := decodeBody(r, "voiceprint request", req.member); err != nil {
		return nil, err
	}
	return &req, nil
}

// VoiceFromRequest decodes the audio payload of a voiceprint request.
func VoiceFromRequest(req *VoiceprintRequest) (*audio.Signal, error) {
	raw, err := decodeB64(req.VoiceWAV)
	if err != nil {
		return nil, fmt.Errorf("protocol: voiceprint payload: %w", err)
	}
	s, err := audio.ReadWAV(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding voiceprint audio: %w", err)
	}
	return s, nil
}

// VoiceprintFromAudio packages audio into a voiceprint request.
func VoiceprintFromAudio(user string, voice *audio.Signal) (*VoiceprintRequest, error) {
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, voice); err != nil {
		return nil, fmt.Errorf("protocol: encoding voiceprint audio: %w", err)
	}
	return &VoiceprintRequest{ClaimedUser: user, VoiceWAV: encodeB64(buf.Bytes())}, nil
}

// EnrollRequest registers a new user with the ASV stage: one or more
// recording sessions, each with one or more passphrase utterances.
type EnrollRequest struct {
	// User is the identity to enroll.
	User string `json:"user"`
	// Sessions holds base64 WAV utterances grouped by recording session.
	Sessions [][][]byte `json:"sessions"`
}

// EnrollResponse reports the enrollment outcome.
type EnrollResponse struct {
	// OK is true when the user was enrolled.
	OK bool `json:"ok"`
	// Error carries the failure reason.
	Error string `json:"error,omitempty"`
	// TraceID correlates the response with the server's log line and the
	// X-Request-ID header of the request that produced it.
	TraceID string `json:"trace_id,omitempty"`
}

// EnrollFromAudio packages utterances into an enrollment request.
func EnrollFromAudio(user string, sessions [][]*audio.Signal) (*EnrollRequest, error) {
	req := &EnrollRequest{User: user}
	for _, sess := range sessions {
		var encoded [][]byte
		for _, utt := range sess {
			var buf bytes.Buffer
			if err := audio.WriteWAV(&buf, utt); err != nil {
				return nil, fmt.Errorf("protocol: encoding enrollment audio: %w", err)
			}
			encoded = append(encoded, encodeB64(buf.Bytes()))
		}
		req.Sessions = append(req.Sessions, encoded)
	}
	return req, nil
}

// SessionsFromEnroll decodes the audio payloads of an enrollment request.
func SessionsFromEnroll(req *EnrollRequest) ([][]*audio.Signal, error) {
	var out [][]*audio.Signal
	for i, sess := range req.Sessions {
		var decoded []*audio.Signal
		for j, raw := range sess {
			wav, err := decodeB64(raw)
			if err != nil {
				return nil, fmt.Errorf("protocol: enrollment payload [%d][%d]: %w", i, j, err)
			}
			s, err := audio.ReadWAV(bytes.NewReader(wav))
			if err != nil {
				return nil, fmt.Errorf("protocol: decoding enrollment audio [%d][%d]: %w", i, j, err)
			}
			decoded = append(decoded, s)
		}
		out = append(out, decoded)
	}
	return out, nil
}

// EncodeEnroll serializes and gzips an enrollment request.
func EncodeEnroll(req *EnrollRequest) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(req); err != nil {
		return nil, fmt.Errorf("protocol: encoding enrollment request: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("protocol: closing gzip stream: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeEnroll ungzips and parses an enrollment request in one pass.
func DecodeEnroll(r io.Reader) (*EnrollRequest, error) {
	var req EnrollRequest
	if err := decodeBody(r, "enrollment request", req.member); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeRequest serializes and gzips a request.
func EncodeRequest(req *VerifyRequest) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(req); err != nil {
		return nil, fmt.Errorf("protocol: encoding request: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("protocol: closing gzip stream: %w", err)
	}
	return buf.Bytes(), nil
}

// ErrTooLarge is returned when a payload exceeds MaxPayloadBytes.
var ErrTooLarge = errors.New("protocol: payload too large")

// DecodeRequest ungzips and parses a request in one pass: the JSON is
// decoded as it inflates (decode.go), capped at MaxPayloadBytes, and the
// gzip trailer is checked before it returns.
func DecodeRequest(r io.Reader) (*VerifyRequest, error) {
	var req VerifyRequest
	if err := decodeBody(r, "request", req.member); err != nil {
		return nil, err
	}
	return &req, nil
}

// tracesToWire converts a sensor trace.
func tracesToWire(tr *sensors.Trace) []SampleJSON {
	if tr == nil {
		return nil
	}
	out := make([]SampleJSON, len(tr.Samples))
	for i, s := range tr.Samples {
		out[i] = SampleJSON{T: s.T, X: s.V.X, Y: s.V.Y, Z: s.V.Z}
	}
	return out
}

// wireToTrace converts back to a sensor trace.
func wireToTrace(name string, ss []SampleJSON) *sensors.Trace {
	tr := &sensors.Trace{Name: name, Samples: make([]sensors.Sample, len(ss))}
	for i, s := range ss {
		tr.Samples[i] = sensors.Sample{T: s.T}
		tr.Samples[i].V.X = s.X
		tr.Samples[i].V.Y = s.Y
		tr.Samples[i].V.Z = s.Z
	}
	return tr
}

// FromSession converts a core session into a wire request.
func FromSession(s *core.SessionData, pilotHz float64) (*VerifyRequest, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var captureBuf, voiceBuf bytes.Buffer
	if s.Gesture.Capture != nil {
		if err := audio.WriteWAV(&captureBuf, s.Gesture.Capture); err != nil {
			return nil, fmt.Errorf("protocol: encoding capture: %w", err)
		}
	}
	if err := audio.WriteWAV(&voiceBuf, s.Voice); err != nil {
		return nil, fmt.Errorf("protocol: encoding voice: %w", err)
	}
	req := &VerifyRequest{
		ClaimedUser: s.ClaimedUser,
		Gyro:        tracesToWire(s.Gesture.Gyro),
		Accel:       tracesToWire(s.Gesture.Accel),
		Mag:         tracesToWire(s.Gesture.Mag),
		SweepStart:  s.Gesture.SweepStart,
		SweepEnd:    s.Gesture.SweepEnd,
		PilotHz:     pilotHz,
		CaptureWAV:  encodeB64(captureBuf.Bytes()),
		VoiceWAV:    encodeB64(voiceBuf.Bytes()),
	}
	for _, m := range s.Field {
		req.Field = append(req.Field, FieldJSON{AngleDeg: m.AngleDeg, FreqHz: m.FreqHz, LevelDB: m.LevelDB})
	}
	return req, nil
}

// ToSession reconstructs a core session server-side, re-running the
// heading fusion and displacement recovery exactly as the paper's backend
// pipeline does on uploaded data.
func ToSession(req *VerifyRequest) (*core.SessionData, error) {
	if req == nil {
		return nil, errors.New("protocol: nil request")
	}
	voiceWAV, err := decodeB64(req.VoiceWAV)
	if err != nil {
		return nil, fmt.Errorf("protocol: voice payload: %w", err)
	}
	voice, err := audio.ReadWAV(bytes.NewReader(voiceWAV))
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding voice: %w", err)
	}
	captureWAV, err := decodeB64(req.CaptureWAV)
	if err != nil {
		return nil, fmt.Errorf("protocol: capture payload: %w", err)
	}
	capture, err := audio.ReadWAV(bytes.NewReader(captureWAV))
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding capture: %w", err)
	}
	gesture, err := trajectory.FromUpload(
		wireToTrace("gyro", req.Gyro),
		wireToTrace("accel", req.Accel),
		wireToTrace("mag", req.Mag),
		capture, req.PilotHz, req.SweepStart, req.SweepEnd,
	)
	if err != nil {
		return nil, fmt.Errorf("protocol: rebuilding gesture: %w", err)
	}
	s := &core.SessionData{
		ClaimedUser: req.ClaimedUser,
		Gesture:     gesture,
		Voice:       voice,
	}
	for _, m := range req.Field {
		s.Field = append(s.Field, soundfield.Measurement{
			AngleDeg: m.AngleDeg, FreqHz: m.FreqHz, LevelDB: m.LevelDB,
		})
	}
	return s, nil
}

// DecisionToResponse converts a pipeline decision.
func DecisionToResponse(d core.Decision) *VerifyResponse {
	resp := &VerifyResponse{
		Accepted:  d.Accepted,
		TraceID:   d.TraceID,
		ElapsedUS: d.Elapsed.Microseconds(),
	}
	if !d.Accepted {
		resp.FailedStage = d.FailedStage.String()
	}
	for _, st := range d.Stages {
		resp.Stages = append(resp.Stages, StageJSON{
			Stage:     st.Stage.String(),
			Pass:      st.Pass,
			Score:     st.Score,
			Detail:    st.Detail,
			ElapsedUS: st.Elapsed.Microseconds(),
		})
	}
	return resp
}

func encodeB64(raw []byte) []byte {
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(out, raw)
	return out
}

func decodeB64(enc []byte) ([]byte, error) {
	out := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
	n, err := base64.StdEncoding.Decode(out, enc)
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}
