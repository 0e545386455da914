package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/telemetry"
	"voiceguard/internal/trajectory"
)

// StreamVerifier evaluates a verification session incrementally as its
// channels arrive over the streaming protocol. Chunks accumulate into
// per-channel buffers (audio chunks are kept as offered and joined once,
// when their channel closes); a stage is admitted the moment every
// channel it reads is complete, and the session REJECTS the instant any
// admitted stage fails — without waiting for the rest of the upload.
// ACCEPT still requires every configured stage to run and pass at
// Finish, so the cascade semantics (and the never-fabricate-REJECT
// deadline guarantee) match System.VerifyContext exactly.
//
// One extra early exit runs before its channel completes: each
// magnetometer chunk is re-checked via settledMetrics, whose statistics
// are monotone lower bounds of the full-trace values — crossing Mt/βt on
// a prefix proves the complete session would reject, so the loudspeaker
// stage may trip mid-upload (the paper's §IV-B3 signature is strongest
// in the first instants the phone approaches a driver).
//
// A StreamVerifier is not safe for concurrent use: the connection
// handler that owns the stream feeds it frames in arrival order.
type StreamVerifier struct {
	sys     *System
	traceID string
	root    *telemetry.Span
	start   time.Time

	claimedUser string
	pilotHz     float64 // unit: Hz
	sweepStart  float64 // unit: s
	sweepEnd    float64 // unit: s

	gyro, accel, mag *sensors.Trace
	field            []soundfield.Measurement
	capture, voice   *audio.Signal
	// captureChunks and voiceChunks hold an open audio channel's chunks
	// until its last one arrives and offerAudio joins them.
	captureChunks, voiceChunks [][]float64

	helloDone, marksDone                                            bool
	gyroDone, accelDone, magDone, fieldDone, captureDone, voiceDone bool

	gesture  *trajectory.Gesture
	results  map[Stage]*StageResult
	decision *Decision
	dead     bool
}

// ErrStreamClosed is returned when chunks are offered to a verifier that
// already reached a terminal state (decided, failed, or abandoned).
var ErrStreamClosed = errors.New("core: stream verifier is closed")

// NewStreamVerifier opens an incremental verification under the given
// trace ID (empty mints one). The root span starts now, so the eventual
// decision's Elapsed covers the whole stream — upload included — which
// is what "time to decision" means on this path.
func (s *System) NewStreamVerifier(traceID string) (*StreamVerifier, error) {
	if s.Distance == nil && s.Field == nil && s.Speaker == nil && s.Identity == nil {
		return nil, ErrIncompleteSystem
	}
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	root := s.Tracer.StartTrace(traceID, "verify")
	root.SetString("transport", "stream")
	return &StreamVerifier{
		sys:     s,
		traceID: traceID,
		root:    root,
		start:   time.Now(),
		gyro:    &sensors.Trace{Name: "gyro"},
		accel:   &sensors.Trace{Name: "accel"},
		mag:     &sensors.Trace{Name: "mag"},
		results: make(map[Stage]*StageResult),
	}, nil
}

// TraceID returns the session's trace ID.
func (v *StreamVerifier) TraceID() string { return v.traceID }

// Decided returns the decision if the session has already been decided,
// else nil.
func (v *StreamVerifier) Decided() *Decision { return v.decision }

// admit gates every offer: a decided session swallows trailing chunks
// (the connection drains without re-evaluating), a dead one refuses, and
// a dead context abandons the session exactly like VerifyContext —
// surfacing the deadline, never a fabricated rejection.
func (v *StreamVerifier) admit(ctx context.Context) (open bool, err error) {
	if v.decision != nil {
		return false, nil
	}
	if v.dead {
		return false, ErrStreamClosed
	}
	if err := ctx.Err(); err != nil {
		v.Abandon("deadline_exceeded")
		return false, fmt.Errorf("core: stream verification abandoned after %v: %w", time.Since(v.start), err)
	}
	return true, nil
}

// OfferHello records the session's identity claim and ranging pilot.
// unit: pilotHz Hz
func (v *StreamVerifier) OfferHello(ctx context.Context, claimedUser string, pilotHz float64) error {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return err
	}
	if v.helloDone {
		return v.fail(fmt.Errorf("core: duplicate hello on stream %s", v.traceID))
	}
	v.claimedUser = claimedUser
	v.pilotHz = pilotHz
	v.helloDone = true
	return nil
}

// SetMarks records the ranging sweep boundaries.
// unit: sweepStart s, sweepEnd s
func (v *StreamVerifier) SetMarks(ctx context.Context, sweepStart, sweepEnd float64) error {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return err
	}
	v.sweepStart, v.sweepEnd = sweepStart, sweepEnd
	v.marksDone = true
	return nil
}

// OfferGyro extends the gyroscope trace; last closes the channel. A
// non-nil decision is an early REJECT — the session is over.
func (v *StreamVerifier) OfferGyro(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	return v.offerSensor(ctx, v.gyro, &v.gyroDone, samples, last)
}

// OfferAccel extends the accelerometer trace; last closes the channel.
func (v *StreamVerifier) OfferAccel(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	return v.offerSensor(ctx, v.accel, &v.accelDone, samples, last)
}

// OfferMag extends the magnetometer trace; last closes the channel.
// Every magnetometer chunk additionally runs the settled-prefix
// loudspeaker check, so a session waving the phone at a speaker driver
// can reject here long before its audio uploads.
func (v *StreamVerifier) OfferMag(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if err := appendSensor(v.mag, &v.magDone, samples, last); err != nil {
		return nil, v.fail(err)
	}
	if !v.magDone && v.sys.Speaker != nil && v.results[StageLoudspeaker] == nil {
		if m, ok := settledMetrics(v.mag); ok && (m.Swing >= v.sys.Speaker.Mt || m.MaxRate >= v.sys.Speaker.Bt) {
			res := v.runStage(ctx, StageLoudspeaker, func(sp *telemetry.Span) StageResult {
				sp.SetBool("settled_prefix", true)
				sp.SetInt("prefix_samples", int64(v.mag.Len()))
				return v.sys.Speaker.VerifyMetricsSpan(sp, m)
			})
			if !res.Pass {
				return v.decide(), nil
			}
		}
	}
	return v.advance(ctx)
}

// offerSensor is the shared gyro/accel append-then-advance path.
func (v *StreamVerifier) offerSensor(ctx context.Context, tr *sensors.Trace, done *bool, samples []sensors.Sample, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if err := appendSensor(tr, done, samples, last); err != nil {
		return nil, v.fail(err)
	}
	return v.advance(ctx)
}

func appendSensor(tr *sensors.Trace, done *bool, samples []sensors.Sample, last bool) error {
	if *done {
		return fmt.Errorf("core: %s chunk after channel close", tr.Name)
	}
	tr.Samples = append(tr.Samples, samples...)
	if last {
		*done = true
	}
	return nil
}

// OfferField extends the sound-field sweep; last closes the channel.
func (v *StreamVerifier) OfferField(ctx context.Context, points []soundfield.Measurement, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if v.fieldDone {
		return nil, v.fail(fmt.Errorf("core: field chunk after channel close"))
	}
	v.field = append(v.field, points...)
	if last {
		v.fieldDone = true
	}
	return v.advance(ctx)
}

// OfferCapture extends the gesture-capture audio channel (the ranging
// sweep recording); last closes it. Rate must not change mid-channel.
// The verifier keeps samples, without copying, until the channel closes:
// the caller must not modify it before then.
// unit: rate Hz
func (v *StreamVerifier) OfferCapture(ctx context.Context, rate float64, samples []float64, last bool) (*Decision, error) {
	return v.offerAudio(ctx, &v.capture, &v.captureChunks, &v.captureDone, "capture", rate, samples, last)
}

// OfferVoice extends the passphrase audio channel; last closes it. Like
// OfferCapture, it keeps samples until the channel closes.
// unit: rate Hz
func (v *StreamVerifier) OfferVoice(ctx context.Context, rate float64, samples []float64, last bool) (*Decision, error) {
	return v.offerAudio(ctx, &v.voice, &v.voiceChunks, &v.voiceDone, "voice", rate, samples, last)
}

// offerAudio queues a chunk on its channel. The last chunk joins the
// queue into one exactly sized slice, so a channel's audio is copied
// once however it was chunked; no stage reads it before then.
// unit: rate Hz
func (v *StreamVerifier) offerAudio(ctx context.Context, sig **audio.Signal, chunks *[][]float64, done *bool, name string, rate float64, samples []float64, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if *done {
		return nil, v.fail(fmt.Errorf("core: %s audio chunk after channel close", name))
	}
	if *sig == nil {
		*sig = &audio.Signal{Rate: rate}
	} else if (*sig).Rate != rate { //lint:allow floatcmp the wire carries exact float64 bits; any change is a protocol error
		return nil, v.fail(fmt.Errorf("core: %s audio rate changed mid-stream (%v -> %v)", name, (*sig).Rate, rate))
	}
	*chunks = append(*chunks, samples)
	if last {
		n := 0
		for _, c := range *chunks {
			n += len(c)
		}
		joined := make([]float64, 0, n)
		for _, c := range *chunks {
			joined = append(joined, c...)
		}
		(*sig).Samples = joined
		*chunks = nil
		*done = true
	}
	return v.advance(ctx)
}

// Finish seals the session: every channel must be closed, the assembled
// session must validate, and every configured stage must have run (the
// stages admitted last run here). Accept requires all of them to pass —
// identical to the HTTP cascade.
func (v *StreamVerifier) Finish(ctx context.Context) (Decision, error) {
	if v.decision != nil {
		return *v.decision, nil
	}
	if _, err := v.admit(ctx); err != nil {
		return Decision{TraceID: v.traceID}, err
	}
	if v.dead {
		return Decision{TraceID: v.traceID}, ErrStreamClosed
	}
	if !v.helloDone || !v.marksDone {
		return Decision{TraceID: v.traceID}, v.fail(fmt.Errorf("core: finish before hello/segment marks"))
	}
	// A fixed order, so the error names the same channel every time.
	for _, ch := range [...]struct {
		name string
		done bool
	}{
		{"gyro", v.gyroDone}, {"accel", v.accelDone}, {"mag", v.magDone},
		{"field", v.fieldDone}, {"capture", v.captureDone}, {"voice", v.voiceDone},
	} {
		if !ch.done {
			return Decision{TraceID: v.traceID}, v.fail(fmt.Errorf("core: finish before %s channel closed", ch.name))
		}
	}
	// Validation parity with the HTTP path: the same session contents
	// must clear the same bar before a verdict exists.
	if err := v.buildGesture(); err != nil {
		return Decision{TraceID: v.traceID}, v.fail(err)
	}
	session := &SessionData{
		ClaimedUser: v.claimedUser,
		Gesture:     v.gesture,
		Field:       v.field,
		Voice:       v.voice,
	}
	if err := session.Validate(); err != nil {
		return Decision{TraceID: v.traceID}, v.fail(err)
	}
	if d, err := v.advance(ctx); err != nil {
		return Decision{TraceID: v.traceID}, err
	} else if d != nil {
		return *d, nil
	}
	for _, st := range stageOrder {
		if v.configured(st) && v.results[st] == nil {
			return Decision{TraceID: v.traceID}, v.fail(fmt.Errorf("core: stage %s never became admissible", st.MetricName()))
		}
	}
	return *v.decide(), nil
}

// Abandon terminates an undecided session without a verdict (connection
// loss, deadline, shutdown). The trace records the outcome so abandoned
// streams are distinguishable in the flight recorder; like the HTTP
// deadline path it never fabricates a rejection.
func (v *StreamVerifier) Abandon(outcome string) {
	if v.decision != nil || v.dead {
		return
	}
	v.dead = true
	v.root.SetString("outcome", outcome)
	v.sys.Tracer.Finish(v.root, telemetry.Verdict{Accepted: false, Elapsed: time.Since(v.start)})
}

// fail marks the verifier dead on a malformed stream or invalid session
// and returns the error for the caller to propagate.
func (v *StreamVerifier) fail(err error) error {
	v.Abandon("error")
	return err
}

// stageOrder is the paper's cascade order (Fig. 4): decisions are
// assembled in this order no matter when each stage actually ran.
var stageOrder = [...]Stage{StageDistance, StageSoundField, StageLoudspeaker, StageSpeakerID}

func (v *StreamVerifier) configured(st Stage) bool {
	switch st {
	case StageDistance:
		return v.sys.Distance != nil
	case StageSoundField:
		return v.sys.Field != nil
	case StageLoudspeaker:
		return v.sys.Speaker != nil
	case StageSpeakerID:
		return v.sys.Identity != nil
	default:
		return false
	}
}

// advance runs every stage whose inputs just became complete, in the
// paper's order, stopping at the first failure. A non-nil decision is a
// REJECT (early relative to the frames still in flight).
func (v *StreamVerifier) advance(ctx context.Context) (*Decision, error) {
	type admission struct {
		st    Stage
		ready bool
		run   func(sp *telemetry.Span) StageResult
	}
	distReady := v.helloDone && v.marksDone && v.gyroDone && v.accelDone && v.magDone && v.captureDone
	if v.sys.Distance != nil && v.results[StageDistance] == nil && distReady {
		if err := v.buildGesture(); err != nil {
			return nil, v.fail(err)
		}
	}
	plan := []admission{
		{StageDistance, distReady, func(sp *telemetry.Span) StageResult {
			return v.sys.Distance.VerifySpan(sp, v.gesture)
		}},
		{StageSoundField, v.fieldDone, func(sp *telemetry.Span) StageResult {
			return v.sys.Field.VerifySpan(sp, v.field)
		}},
		{StageLoudspeaker, v.magDone, func(sp *telemetry.Span) StageResult {
			return v.sys.Speaker.VerifySpan(sp, v.mag)
		}},
		{StageSpeakerID, v.helloDone && v.voiceDone, func(sp *telemetry.Span) StageResult {
			return v.sys.Identity.VerifySpan(sp, v.claimedUser, v.voice)
		}},
	}
	for _, a := range plan {
		if !a.ready || !v.configured(a.st) || v.results[a.st] != nil {
			continue
		}
		if res := v.runStage(ctx, a.st, a.run); !res.Pass {
			return v.decide(), nil
		}
	}
	return nil, nil
}

// buildGesture fuses the sensor and capture channels into the gesture
// the distance stage (and evidence parity) needs. Idempotent.
func (v *StreamVerifier) buildGesture() error {
	if v.gesture != nil {
		return nil
	}
	g, err := trajectory.FromUpload(v.gyro, v.accel, v.mag, v.capture, v.pilotHz, v.sweepStart, v.sweepEnd)
	if err != nil {
		return err
	}
	v.gesture = g
	return nil
}

// runStage mirrors VerifyContext's per-stage harness: fault-injection
// hook at admission, an evidence-carrying "stage:<name>" span, and the
// result stamped with its own Elapsed by the stage implementation.
func (v *StreamVerifier) runStage(ctx context.Context, st Stage, verify func(sp *telemetry.Span) StageResult) StageResult {
	if v.sys.StageHook != nil {
		v.sys.StageHook(ctx, st)
	}
	sp := v.root.StartSpan(telemetry.StageSpanName + st.MetricName())
	res := verify(sp)
	endStageSpan(sp, res)
	v.results[st] = &res
	return res
}

// decide assembles the verdict from the stages that ran, in the paper's
// order, truncated at the first failure — the same shape
// VerifyContext produces — and finishes the trace.
func (v *StreamVerifier) decide() *Decision {
	d := &Decision{TraceID: v.traceID, Accepted: true}
	for _, st := range stageOrder {
		r := v.results[st]
		if r == nil {
			continue
		}
		d.Stages = append(d.Stages, *r)
		if !r.Pass {
			d.FailedStage = st
			d.Accepted = false
			break
		}
	}
	d.Elapsed = time.Since(v.start)
	verdict := telemetry.Verdict{Accepted: d.Accepted, Elapsed: d.Elapsed}
	if !d.Accepted {
		verdict.FailedStage = d.FailedStage.MetricName()
	}
	v.sys.Tracer.Finish(v.root, verdict)
	v.decision = d
	return d
}
