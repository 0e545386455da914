package core

import (
	"context"
	"errors"
	"fmt"

	"voiceguard/internal/sensors"
	"voiceguard/internal/telemetry"
)

// System is the assembled VoiceGuard pipeline.
type System struct {
	// Distance is stage 1.
	Distance *DistanceVerifier
	// Field is stage 2.
	Field *SoundFieldVerifier
	// Speaker is stage 3 (loudspeaker detection).
	Speaker *LoudspeakerDetector
	// Identity is stage 4.
	Identity *SpeakerVerifier
	// Tracer, when set, records an evidence-carrying span tree per
	// verification: one "stage:<name>" span per executed stage carrying
	// the stage's measured quantities and live thresholds, with sub-op
	// and worker-block children below. Nil disables tracing at the cost
	// of one pointer test per call.
	Tracer *telemetry.Tracer
	// StageHook, when set, runs at the start of every stage verification
	// with the request context and the stage about to execute. It is the
	// fault-injection seam the deadline and load-shedding tests use to
	// make a stage artificially slow or hung (a hook that selects on
	// ctx.Done simulates a stalled sensor back-end); production
	// deployments leave it nil.
	StageHook func(ctx context.Context, st Stage)
}

// SystemConfig assembles a System with defaults.
type SystemConfig struct {
	// FieldSeed seeds the sound-field verifier's training sweeps.
	FieldSeed int64
	// ASV configures the identity back-end.
	ASV SpeakerVerifierConfig
	// DisableDistance, DisableField and DisableMagnetic drop individual
	// stages — used by the ablation benchmarks, not production.
	DisableDistance, DisableField, DisableMagnetic bool
}

// BuildSystem assembles the machine-attack stages (1–3). The ASV stage is
// attached separately with AttachIdentity because many experiments run
// without it (the paper's §VI evaluates the anti-spoofing subsystem in
// isolation, Spear handling human impostors).
func BuildSystem(cfg SystemConfig) (*System, error) {
	s := &System{}
	if !cfg.DisableDistance {
		s.Distance = NewDistanceVerifier()
	}
	if !cfg.DisableField {
		mouth, machine, err := DefaultSoundFieldTraining(cfg.FieldSeed)
		if err != nil {
			return nil, fmt.Errorf("core: generating sound-field training data: %w", err)
		}
		fv, err := TrainSoundFieldVerifier(mouth, machine, cfg.FieldSeed)
		if err != nil {
			return nil, err
		}
		s.Field = fv
	}
	if !cfg.DisableMagnetic {
		s.Speaker = NewLoudspeakerDetector()
	}
	return s, nil
}

// AttachIdentity plugs in a trained ASV back-end as stage 4.
func (s *System) AttachIdentity(v *SpeakerVerifier) { s.Identity = v }

// CalibrateEnvironment applies §VII adaptive thresholding from an ambient
// magnetometer recording.
func (s *System) CalibrateEnvironment(ambient *sensors.Trace) {
	if s.Speaker != nil {
		s.Speaker.Calibrate(ambient)
	}
}

// ErrIncompleteSystem is returned when Verify runs with no stages.
var ErrIncompleteSystem = errors.New("core: system has no configured stages")

// Verify runs the cascade over a session with a freshly generated trace
// ID. Stages execute in the paper's order and the first failure rejects;
// all executed stage results are returned for diagnostics.
func (s *System) Verify(session *SessionData) (Decision, error) {
	return s.VerifyTraced(telemetry.NewTraceID(), session)
}

// VerifyTraced runs the cascade under a caller-supplied trace ID (the
// server passes the request's X-Request-ID so decision, response and log
// line all correlate). It is the no-deadline compatibility form of
// VerifyContext: the background context can never cancel, so the call
// behaves exactly like the pre-context cascade at the cost of one nil
// channel test.
func (s *System) VerifyTraced(traceID string, session *SessionData) (Decision, error) {
	//lint:allow ctxfirst seed-compatible entry point; deadline-aware callers use VerifyContext
	return s.VerifyContext(context.Background(), traceID, session)
}

// VerifyContext runs the cascade over an assembled session under a
// request context and a caller-supplied trace ID. The session arrives
// whole, so every stage is admitted at once and the stages overlap
// (parallel.DoContext): the cheap sensor checks run alongside the
// expensive ASV scoring instead of in front of it. The decision is
// assembled in the paper's order and truncated at the first failure, so
// it is indistinguishable from a serial cascade. Each executed stage is
// individually timed and the decision carries the total pipeline
// latency — the per-stage breakdown behind the paper's §V end-to-end
// response-time result.
//
// The context bounds the verification: it is checked on entry, again at
// the start of every stage, and the fan-out stops waiting the moment ctx
// dies. On cancellation the returned error wraps ctx.Err() — test it
// with errors.Is(err, context.DeadlineExceeded) — and the Decision
// carries only the trace ID: stages still running have detached and
// their results are never read. The root span records an "outcome" =
// "deadline_exceeded" attribute so abandoned attempts are
// distinguishable in the flight recorder.
func (s *System) VerifyContext(ctx context.Context, traceID string, session *SessionData) (Decision, error) {
	if ctx == nil {
		//lint:allow ctxfirst a nil context means "no deadline", the documented compatibility behavior
		ctx = context.Background()
	}
	// The trace ID is assigned before validation so even an errored
	// attempt returns a Decision that correlates with the request's logs
	// and metrics exemplars.
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	if err := session.Validate(); err != nil {
		return Decision{TraceID: traceID}, err
	}
	e, err := s.newEvaluator(traceID)
	if err != nil {
		return Decision{TraceID: traceID}, err
	}
	e.in, e.mag, e.closed = *session, session.Gesture.Mag, allChannels
	if _, err := e.admit(ctx); err != nil {
		return Decision{TraceID: traceID}, err
	}
	return e.finish(ctx)
}
