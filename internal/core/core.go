// Package core implements VoiceGuard, the paper's contribution: a
// software-only voice-impersonation defense that cascades four verifiers
// (Fig. 4):
//
//  1. sound-source distance verification — the gesture's circle-fitted
//     trajectory must place the phone within Dt of the sound source;
//  2. sound-field verification — an SVM accepts only sources whose
//     spatial sound field matches a human mouth;
//  3. loudspeaker detection — magnetometer magnitude swing and change
//     rate must stay below the Mt/βt thresholds;
//  4. speaker-identity verification — a GMM-UBM (or ISV) ASV back-end
//     must accept the claimed speaker.
//
// Machine-based attacks (replay/morphing/synthesis) terminate in a
// loudspeaker and die at stages 1–3; human imitators die at stage 4.
package core

import (
	"errors"
	"fmt"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/trajectory"
)

// SessionData is everything one verification attempt uploads: the motion
// gesture (inertial + magnetic + acoustic ranging), the sound-field sweep
// measurements, and the spoken passphrase.
type SessionData struct {
	// ClaimedUser is the identity being asserted.
	ClaimedUser string
	// Gesture is the recorded motion/sensing of the attempt.
	Gesture *trajectory.Gesture
	// Field is the sound-field sweep of the attempt.
	Field []soundfield.Measurement
	// Voice is the spoken passphrase audio.
	Voice *audio.Signal
}

// Validate reports whether the session carries all required channels.
func (s *SessionData) Validate() error {
	switch {
	case s == nil:
		return errors.New("core: nil session")
	case s.ClaimedUser == "":
		return errors.New("core: missing claimed user")
	case s.Gesture == nil:
		return errors.New("core: missing gesture data")
	case len(s.Field) == 0:
		return errors.New("core: missing sound-field measurements")
	case s.Voice == nil || s.Voice.Len() == 0:
		return errors.New("core: missing voice audio")
	}
	return nil
}

// Stage identifies a pipeline component.
type Stage int

// Pipeline stages in cascade order.
const (
	StageDistance Stage = iota + 1
	StageSoundField
	StageLoudspeaker
	StageSpeakerID
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageDistance:
		return "distance-verification"
	case StageSoundField:
		return "sound-field-verification"
	case StageLoudspeaker:
		return "loudspeaker-detection"
	case StageSpeakerID:
		return "speaker-identity-verification"
	default:
		return "unknown"
	}
}

// MetricName is the short series label used for the stage in telemetry
// (histogram label values, log fields); String() stays the long
// human-readable form used in wire responses and details.
func (s Stage) MetricName() string {
	switch s {
	case StageDistance:
		return "distance"
	case StageSoundField:
		return "soundfield"
	case StageLoudspeaker:
		return "loudspeaker"
	case StageSpeakerID:
		return "identity"
	default:
		return "unknown"
	}
}

// EvidenceValue is one named statistic a stage measured while deciding
// (field_ut, distance_cm, svm_margin, llr, ...). Stages expose their raw
// evidence through StageResult so the observability layer can aggregate
// score distributions over time without re-parsing span attributes.
type EvidenceValue struct {
	// Metric names the statistic; matches the span attribute name and
	// the EvidenceSeriesDefs entry. Empty marks an unused slot.
	Metric string
	// Value is the measured statistic (unit varies by metric).
	Value float64 // unit: any
}

// maxStageEvidence bounds the inline evidence array: no stage records
// more than two window-tracked statistics, and keeping the array inline
// keeps StageResult allocation-free on the hot path.
const maxStageEvidence = 2

// StageResult is one component's verdict.
type StageResult struct {
	// Stage identifies the component.
	Stage Stage
	// Pass reports whether the component accepted the session.
	Pass bool
	// Score is the component's continuous statistic (meaning varies by
	// stage; higher is always "more genuine").
	Score float64 // unit: any
	// Detail is a human-readable explanation.
	Detail string
	// Elapsed is the stage's processing time for this session.
	Elapsed time.Duration
	// Evidence carries the stage's raw measured statistics (unused slots
	// have an empty Metric).
	Evidence [maxStageEvidence]EvidenceValue
}

// TimeStage returns a function that stamps res.Elapsed with the time
// since TimeStage was called. Every stage-verify implementation defers it
// over a named result:
//
//	func (v *MyVerifier) Verify(...) (res StageResult) {
//		defer TimeStage(&res)()
//		...
//	}
//
// so the per-stage latency breakdown (the paper's §V response-time
// result, exported through the telemetry histograms) is recorded even
// when a stage is invoked outside the System cascade. The
// stageinstrument analyzer in voiceguard-lint enforces this.
func TimeStage(res *StageResult) func() {
	start := time.Now()
	return func() { res.Elapsed = time.Since(start) }
}

// Decision is the pipeline outcome for one session.
type Decision struct {
	// Accepted is the final verdict.
	Accepted bool
	// FailedStage is the first failing stage (0 when accepted).
	FailedStage Stage
	// Stages holds every executed component result in order.
	Stages []StageResult
	// TraceID correlates this decision with the request that produced it
	// (X-Request-ID on the wire, the trace_id log field server-side).
	TraceID string
	// Elapsed is the total pipeline latency across all executed stages.
	Elapsed time.Duration
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	if d.Accepted {
		return "ACCEPT"
	}
	return fmt.Sprintf("REJECT at %v", d.FailedStage)
}
