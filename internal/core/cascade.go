package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"voiceguard/internal/parallel"
	"voiceguard/internal/sensors"
	"voiceguard/internal/telemetry"
)

// Stages is the paper's cascade order (Fig. 4). A decision lists its
// stage results in this order, whenever each stage actually ran.
var Stages = [...]Stage{StageDistance, StageSoundField, StageLoudspeaker, StageSpeakerID}

// slot is the stage's index in Stages.
func (s Stage) slot() int { return int(s - StageDistance) }

// stageSet has one bit per slot of Stages; allStages has every bit.
type stageSet uint8

const allStages stageSet = 1<<len(Stages) - 1

// channel is a set of session input channels. A stage is admissible
// once every channel it reads is closed, that is, complete.
type channel uint16

const (
	chHello   channel = 1 << iota // claimed user and ranging pilot
	chMarks                       // ranging sweep boundaries
	chGyro                        // gyroscope trace
	chAccel                       // accelerometer trace
	chMag                         // magnetometer trace
	chField                       // sound-field sweep
	chCapture                     // ranging capture audio
	chVoice                       // passphrase audio
	chGesture                     // the gesture fused from the channels in gestureInputs

	gestureInputs = chHello | chMarks | chGyro | chAccel | chMag | chCapture
	allChannels   = gestureInputs | chField | chVoice | chGesture
)

// stageSpec is one row of the stage table: the channels the stage reads,
// whether the system configures it, and its VerifySpan call over the
// evaluator's inputs.
type stageSpec struct {
	needs  channel
	on     func(s *System) bool
	verify func(e *evaluator, sp *telemetry.Span) StageResult
}

// cascade is the stage table, indexed like Stages.
var cascade = [len(Stages)]stageSpec{
	{chGesture, func(s *System) bool { return s.Distance != nil },
		func(e *evaluator, sp *telemetry.Span) StageResult {
			return e.sys.Distance.VerifySpan(sp, e.in.Gesture)
		}},
	{chField, func(s *System) bool { return s.Field != nil },
		func(e *evaluator, sp *telemetry.Span) StageResult {
			return e.sys.Field.VerifySpan(sp, e.in.Field)
		}},
	{chMag, func(s *System) bool { return s.Speaker != nil },
		func(e *evaluator, sp *telemetry.Span) StageResult {
			return e.sys.Speaker.VerifySpan(sp, e.mag)
		}},
	{chHello | chVoice, func(s *System) bool { return s.Identity != nil },
		func(e *evaluator, sp *telemetry.Span) StageResult {
			return e.sys.Identity.VerifySpan(sp, e.in.ClaimedUser, e.in.Voice)
		}},
}

// evaluator is the one cascade engine. VerifyContext (VerifyVoiceContext)
// closes every channel (hello and voice) at once and finishes; a
// StreamVerifier closes channels as their frames arrive and advances
// after each. Either way a stage runs the moment its channels are
// closed, the stages admitted together overlap, any failure decides a
// REJECT, and ACCEPT needs every required stage to have run and passed.
type evaluator struct {
	sys     *System
	traceID string
	root    *telemetry.Span
	start   time.Time
	want    stageSet // the required stages

	// in holds the closed channels' contents. mag is the magnetometer
	// trace, which the loudspeaker stage reads before a stream has its
	// gesture.
	in     SessionData
	mag    *sensors.Trace
	closed channel

	// results holds one slot per stage, indexed like Stages. A running
	// stage writes only its own slot; ran marks the slots whose stage
	// finished before the evaluator went on.
	results  [len(Stages)]StageResult
	ran      [len(Stages)]bool
	decision *Decision
	dead     bool
}

// newEvaluator starts a verification, requiring the configured stages
// among asked, under traceID (empty mints one); Elapsed runs from here.
func (s *System) newEvaluator(traceID string, asked stageSet) (*evaluator, error) {
	want := asked
	for i, spec := range cascade {
		if !spec.on(s) {
			want &^= 1 << i
		}
	}
	if want == 0 {
		return nil, ErrIncompleteSystem
	}
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	return &evaluator{
		sys:     s,
		traceID: traceID,
		start:   time.Now(),
		root:    s.Tracer.StartTrace(traceID, "verify"),
		want:    want,
	}, nil
}

// admit gates every call into the evaluator: a decided session has
// nothing left to do, a dead one refuses, and a dead context abandons
// the session, surfacing the deadline and never a fabricated rejection.
func (e *evaluator) admit(ctx context.Context) (open bool, err error) {
	if e.decision != nil {
		return false, nil
	}
	if e.dead {
		return false, ErrStreamClosed
	}
	if err := ctx.Err(); err != nil {
		return false, e.expire(err)
	}
	return true, nil
}

// pending is one admitted stage and the verify call it runs.
type pending struct {
	st     Stage
	verify func(e *evaluator, sp *telemetry.Span) StageResult
}

// advance runs every required stage whose channels are closed and that
// has not run yet. A non-nil decision is a REJECT.
func (e *evaluator) advance(ctx context.Context) (*Decision, error) {
	var buf [len(Stages)]pending
	batch := buf[:0]
	for i, spec := range cascade {
		if !e.ran[i] && e.closed&spec.needs == spec.needs && e.want&(1<<i) != 0 {
			batch = append(batch, pending{Stages[i], spec.verify})
		}
	}
	if len(batch) == 0 {
		return nil, nil
	}
	return e.run(ctx, batch)
}

// run runs the admitted stages through parallel.DoContext: stages
// admitted together overlap, and a lone stage under an uncancellable
// context runs inline. A dead context abandons the session: stages
// still running detach, writing only their own result slots, which a
// dead evaluator never reads. Otherwise the results are recorded, and a
// failed stage decides a REJECT.
func (e *evaluator) run(ctx context.Context, batch []pending) (*Decision, error) {
	var abandoned atomic.Bool
	tasks := make([]func(), len(batch))
	for k, p := range batch {
		tasks[k] = func() { e.results[p.st.slot()] = e.runStage(ctx, p, &abandoned) }
	}
	if err := parallel.DoContext(ctx, tasks...); err != nil {
		return nil, e.expire(err)
	}
	if abandoned.Load() {
		// Every task returned, but one was abandoned at its admission
		// check: its zero verdict is a timeout artifact, not evidence.
		return nil, e.expire(ctx.Err())
	}
	rejected := false
	for _, p := range batch {
		e.ran[p.st.slot()] = true
		rejected = rejected || !e.results[p.st.slot()].Pass
	}
	if rejected {
		return e.decide(), nil
	}
	return nil, nil
}

// runStage is the one stage harness: the deadline check at admission
// (a stage whose context is already dead does no work), the
// fault-injection hook, and an evidence-carrying "stage:<name>" span
// around the stage's own timed verify.
func (e *evaluator) runStage(ctx context.Context, p pending, abandoned *atomic.Bool) StageResult {
	if err := ctx.Err(); err != nil {
		abandoned.Store(true)
		return StageResult{Stage: p.st, Detail: "abandoned: " + err.Error()}
	}
	if e.sys.StageHook != nil {
		e.sys.StageHook(ctx, p.st)
	}
	sp := e.root.StartSpan(telemetry.StageSpanName + p.st.MetricName())
	res := p.verify(e, sp)
	sp.SetBool("pass", res.Pass)
	sp.SetFloat("score", res.Score, "")
	sp.SetString("detail", res.Detail)
	sp.End()
	return res
}

// finish runs the stages still admissible and decides. Every required
// stage must have run by then.
func (e *evaluator) finish(ctx context.Context) (Decision, error) {
	if _, err := e.admit(ctx); err != nil {
		return Decision{TraceID: e.traceID}, err
	}
	d, err := e.advance(ctx)
	if err != nil {
		return Decision{TraceID: e.traceID}, err
	}
	if d != nil {
		return *d, nil
	}
	for i := range cascade {
		if !e.ran[i] && e.want&(1<<i) != 0 {
			return Decision{TraceID: e.traceID}, e.fail(fmt.Errorf("core: stage %s never became admissible", Stages[i].MetricName()))
		}
	}
	return *e.decide(), nil
}

// decide assembles the verdict from the stages that ran, in the paper's
// order, truncated at the first failure, and finishes the trace. It is
// the one place a Decision is built from stage results.
func (e *evaluator) decide() *Decision {
	d := &Decision{TraceID: e.traceID, Accepted: true}
	for i, st := range Stages {
		if !e.ran[i] {
			continue
		}
		r := e.results[i]
		d.Stages = append(d.Stages, r)
		if !r.Pass {
			d.FailedStage = st
			d.Accepted = false
			break
		}
	}
	d.Elapsed = time.Since(e.start)
	verdict := telemetry.Verdict{Accepted: d.Accepted, Elapsed: d.Elapsed}
	if !d.Accepted {
		verdict.FailedStage = d.FailedStage.MetricName()
	}
	e.sys.Tracer.Finish(e.root, verdict)
	e.decision = d
	return d
}

// expire abandons the session at its deadline and returns the error
// that says so; it wraps cause, so errors.Is finds
// context.DeadlineExceeded or context.Canceled.
func (e *evaluator) expire(cause error) error {
	e.abandon("deadline_exceeded")
	return fmt.Errorf("core: verification abandoned after %v: %w", time.Since(e.start), cause)
}

// fail abandons the session on a malformed stream or invalid session
// and returns err for the caller to propagate.
func (e *evaluator) fail(err error) error {
	e.abandon("error")
	return err
}

// abandon ends an undecided session without a verdict. The root span
// records the outcome, so abandoned attempts are distinguishable in the
// flight recorder.
func (e *evaluator) abandon(outcome string) {
	if e.decision != nil || e.dead {
		return
	}
	e.dead = true
	e.root.SetString("outcome", outcome)
	e.sys.Tracer.Finish(e.root, telemetry.Verdict{Accepted: false, Elapsed: time.Since(e.start)})
}
