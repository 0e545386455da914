package core

import (
	"context"
	"errors"
	"fmt"

	"voiceguard/internal/audio"
	"voiceguard/internal/parallel"
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
	// StageHook, when set, runs with the request context at the start of
	// every stage verification and enrollment build (StageSpeakerID). It
	// is the fault-injection seam the deadline and load-shedding tests use
	// to make a stage slow or hung; production deployments leave it nil.
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

// ErrIncompleteSystem is returned when no stage a call needs is configured.
var ErrIncompleteSystem = errors.New("core: system has no configured stages")

// Verify runs the cascade over a session with a freshly generated trace
// ID and no deadline.
func (s *System) Verify(session *SessionData) (Decision, error) {
	//lint:allow ctxfirst no-deadline convenience entry point; deadline-aware callers use VerifyContext
	return s.VerifyContext(context.Background(), "", session)
}

// VerifyContext runs the cascade over an assembled session under a
// request context (nil: no deadline) and a caller-supplied trace ID
// (empty mints one). Every stage is admitted at once, so the cheap
// sensor checks overlap the ASV scoring; the decision lists them in the
// paper's order, truncated at the first failure, as a serial cascade
// would, with each stage's and the total latency.
//
// The context is checked on entry and at the start of every stage, and
// the fan-out stops waiting the moment it dies: the error then wraps
// ctx.Err(), the Decision carries only the trace ID, and the root span's
// "outcome" attribute is "deadline_exceeded".
func (s *System) VerifyContext(ctx context.Context, traceID string, session *SessionData) (Decision, error) {
	if ctx == nil {
		//lint:allow ctxfirst a nil context means "no deadline", the documented compatibility behavior
		ctx = context.Background()
	}
	// Minted before validation, so even a failed attempt correlates.
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	if err := session.Validate(); err != nil {
		return Decision{TraceID: traceID}, err
	}
	e, err := s.newEvaluator(traceID, allStages)
	if err != nil {
		return Decision{TraceID: traceID}, err
	}
	e.in, e.mag, e.closed = *session, session.Gesture.Mag, allChannels
	return e.finish(ctx)
}

// VerifyVoiceContext is VerifyContext over a claimed user and a non-nil
// voice alone, requiring only the identity stage: the voice-only
// baseline of the paper's Fig. 15, traced with "route" = "voiceprint".
func (s *System) VerifyVoiceContext(ctx context.Context, traceID, user string, voice *audio.Signal) (Decision, error) {
	e, err := s.newEvaluator(traceID, 1<<StageSpeakerID.slot())
	if err != nil {
		return Decision{TraceID: traceID}, err
	}
	e.root.SetString("route", "voiceprint")
	e.in.ClaimedUser, e.in.Voice, e.closed = user, voice, chHello|chVoice
	return e.finish(ctx)
}

// EnrollContext builds user's identity model under ctx, after StageHook,
// and registers it with RegisterNew only if the build finished before
// ctx died: on a dead context the error wraps ctx.Err(), and the
// detached build's model is dropped.
func (s *System) EnrollContext(ctx context.Context, user string, sessions [][]*audio.Signal) error {
	if s.Identity == nil {
		return ErrIncompleteSystem
	}
	var m *UserModel
	var err error
	if cerr := parallel.DoContext(ctx, func() {
		if s.StageHook != nil {
			s.StageHook(ctx, StageSpeakerID)
		}
		m, err = s.Identity.BuildEnrollment(user, sessions)
	}); cerr != nil {
		return fmt.Errorf("core: enrollment of %q abandoned: %w", user, cerr)
	}
	if err != nil {
		return err
	}
	return s.Identity.RegisterNew(m)
}
