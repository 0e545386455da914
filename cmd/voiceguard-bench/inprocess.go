package main

// The server's call sequence, run in process: the same public layer
// functions internal/server calls for each transport, in the same order
// and on the same inputs, with a span around each call when a
// sessionTrace is given. With a nil trace the sequence is untraced; it
// then yields the reference reply set-up stores for every request.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/sensors"
	"voiceguard/internal/stream"
	"voiceguard/internal/telemetry"
	"voiceguard/internal/trajectory"
)

// local is what one in-process run of a pooled request produced.
type local struct {
	verdict verdict
	// failed is the failing stage's metric name ("" on accept).
	failed string
	// stages are the decided stage results, timed by the stages.
	stages []core.StageResult
	// frames counts the VGSP frames read before the decision.
	frames int
}

// serveInProcess runs the workload's server-side sequence on one request.
func (b *bench) serveInProcess(ctx context.Context, it *item, t *sessionTrace) (local, error) {
	switch b.w.transport {
	case overHTTP:
		return b.verifyHTTP(ctx, it, t)
	case overStream:
		return b.verifyStream(ctx, it, t)
	default:
		return b.verifyVoiceprint(ctx, it, t)
	}
}

// decided reduces a pipeline decision to the reply the server sends.
func decided(d core.Decision, early bool) (local, *protocol.VerifyResponse) {
	resp := protocol.DecisionToResponse(d)
	out := local{verdict: verdictOf(resp, early), stages: d.Stages}
	if !d.Accepted {
		out.failed = d.FailedStage.MetricName()
	}
	return out, resp
}

// verifyHTTP mirrors the /verify handler.
func (b *bench) verifyHTTP(ctx context.Context, it *item, t *sessionTrace) (local, error) {
	root := t.begin("bench:http", -1)
	s := t.begin("protocol.DecodeRequest", root)
	req, err := protocol.DecodeRequest(bytes.NewReader(it.body))
	t.end(s)
	if err != nil {
		return local{}, err
	}
	s = t.begin("protocol.ToSession", root)
	session, err := protocol.ToSession(req)
	t.end(s)
	if err != nil {
		return local{}, err
	}
	s = t.begin("core.VerifyContext", root)
	d, err := b.sys.VerifyContext(ctx, it.id, session)
	t.end(s)
	if err != nil {
		return local{}, err
	}
	s = t.begin("protocol.EncodeResponse", root)
	out, resp := decided(d, false)
	err = json.NewEncoder(io.Discard).Encode(resp)
	t.end(s)
	t.end(root)
	return out, err
}

// verifyStream mirrors the VGSP connection handler from the first frame
// on; the handshake and the socket stay outside the sequence.
func (b *bench) verifyStream(ctx context.Context, it *item, t *sessionTrace) (local, error) {
	root := t.begin("bench:stream", -1)
	r := bytes.NewReader(it.wire)
	digest := stream.NewSessionDigest()
	var v *core.StreamVerifier
	var d core.Decision
	early := false
	frames := 0
	for {
		s := t.begin("stream.ReadFrame", root)
		f, err := stream.ReadFrame(r, 0)
		t.end(s)
		if err != nil {
			return local{}, err
		}
		if f.Type == stream.TypeFinish {
			s = t.begin("core.StreamVerifier.Finish", root)
			fin, err := stream.DecodeFinish(f.Payload)
			if err == nil && (fin.Digest != digest.Sum() || fin.Frames != uint32(frames)) {
				err = fmt.Errorf("session digest mismatch over %d frames", frames)
			}
			if err == nil {
				d, err = v.Finish(ctx)
			}
			t.end(s)
			if err != nil {
				return local{}, err
			}
			break
		}
		if v == nil {
			s = t.begin("core.NewStreamVerifier", root)
			hello, err := stream.DecodeHello(f.Payload)
			if err == nil {
				v, err = b.sys.NewStreamVerifier(hello.TraceID)
			}
			t.end(s)
			if err != nil {
				return local{}, err
			}
		}
		s = t.begin("stream.SessionDigest.Add", root)
		digest.Add(f)
		t.end(s)
		s = t.begin(it.applyCall[frames], root)
		frames++
		decision, err := protocol.ApplyStreamFrame(ctx, v, f)
		t.end(s)
		if err != nil {
			return local{}, err
		}
		if decision != nil {
			d, early = *decision, true
			break
		}
	}
	s := t.begin("protocol.StreamDecision", root)
	out, resp := decided(d, early)
	_, err := protocol.StreamDecision(resp, early)
	t.end(s)
	t.end(root)
	out.frames = frames
	if !early {
		out.frames++ // the finish frame
	}
	return out, err
}

// verifyVoiceprint mirrors the /voiceprint handler.
func (b *bench) verifyVoiceprint(_ context.Context, it *item, t *sessionTrace) (local, error) {
	root := t.begin("bench:voiceprint", -1)
	s := t.begin("protocol.DecodeVoiceprint", root)
	req, err := protocol.DecodeVoiceprint(bytes.NewReader(it.body))
	t.end(s)
	if err != nil {
		return local{}, err
	}
	s = t.begin("protocol.VoiceFromRequest", root)
	voice, err := protocol.VoiceFromRequest(req)
	t.end(s)
	if err != nil {
		return local{}, err
	}
	s = t.begin("core.SpeakerVerifier.Verify", root)
	res := t.verifyIdentity(b.sys.Identity, req.ClaimedUser, voice)
	t.end(s)
	s = t.begin("protocol.EncodeResponse", root)
	resp := &protocol.VerifyResponse{Accepted: res.Pass, TraceID: it.id, ElapsedUS: res.Elapsed.Microseconds()}
	if !res.Pass {
		resp.FailedStage = res.Stage.String()
	}
	resp.Stages = []protocol.StageJSON{{
		Stage: res.Stage.String(), Pass: res.Pass, Score: res.Score, Detail: res.Detail,
		ElapsedUS: res.Elapsed.Microseconds(),
	}}
	err = json.NewEncoder(io.Discard).Encode(resp)
	t.end(s)
	t.end(root)
	out := local{verdict: verdictOf(resp, false), stages: []core.StageResult{res}}
	if !res.Pass {
		out.failed = res.Stage.MetricName()
	}
	return out, err
}

// verifyIdentity runs the identity stage as the voiceprint handler does;
// traced, it records core's stage span and its mfcc-extract/gmm-score
// children under the session's trace ID.
func (t *sessionTrace) verifyIdentity(v *core.SpeakerVerifier, user string, voice *audio.Signal) core.StageResult {
	if t == nil {
		return v.Verify(user, voice)
	}
	root := t.tracer.StartTrace(t.id, "verify")
	sp := root.StartSpan(telemetry.StageSpanName + core.StageSpeakerID.MetricName())
	res := v.VerifySpan(sp, user, voice)
	sp.End()
	verdict := telemetry.Verdict{Accepted: res.Pass, Elapsed: res.Elapsed}
	if !res.Pass {
		verdict.FailedStage = res.Stage.MetricName()
	}
	t.tracer.Finish(root, verdict)
	return res
}

// uploadInputs are trajectory.FromUpload's arguments, rebuilt from a
// request the way protocol.ToSession and the stream verifier build them.
type uploadInputs struct {
	gyro, accel, mag *sensors.Trace
	capture          *audio.Signal
	pilotHz          float64 // unit: Hz
	sweepStart       float64 // unit: s
	sweepEnd         float64 // unit: s
}

func newUploadInputs(req *protocol.VerifyRequest) (uploadInputs, error) {
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(req.CaptureWAV)))
	n, err := base64.StdEncoding.Decode(raw, req.CaptureWAV)
	if err != nil {
		return uploadInputs{}, fmt.Errorf("capture payload: %w", err)
	}
	capture, err := audio.ReadWAV(bytes.NewReader(raw[:n]))
	if err != nil {
		return uploadInputs{}, fmt.Errorf("decoding capture: %w", err)
	}
	return uploadInputs{
		gyro: toTrace("gyro", req.Gyro), accel: toTrace("accel", req.Accel), mag: toTrace("mag", req.Mag),
		capture: capture, pilotHz: req.PilotHz, sweepStart: req.SweepStart, sweepEnd: req.SweepEnd,
	}, nil
}

func toTrace(name string, ss []protocol.SampleJSON) *sensors.Trace {
	tr := &sensors.Trace{Name: name, Samples: make([]sensors.Sample, len(ss))}
	for i, s := range ss {
		tr.Samples[i].T = s.T
		tr.Samples[i].V.X, tr.Samples[i].V.Y, tr.Samples[i].V.Z = s.X, s.Y, s.Z
	}
	return tr
}

// fromUpload runs trajectory.FromUpload on the inputs.
func (in uploadInputs) fromUpload() error {
	_, err := trajectory.FromUpload(in.gyro, in.accel, in.mag, in.capture, in.pilotHz, in.sweepStart, in.sweepEnd)
	return err
}
