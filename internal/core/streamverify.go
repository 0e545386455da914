package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"voiceguard/internal/audio"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/telemetry"
	"voiceguard/internal/trajectory"
)

// StreamVerifier feeds a verification session to the cascade evaluator
// incrementally, as its channels arrive over the streaming protocol.
// Chunks accumulate into per-channel buffers (audio chunks are kept as
// offered and joined once, when their channel closes); each closed
// channel may admit stages, and the session REJECTS the instant any
// admitted stage fails — without waiting for the rest of the upload.
// ACCEPT still requires every configured stage to run and pass at
// Finish. The evaluator is the one System.VerifyContext drives, so the
// cascade semantics and the never-fabricate-REJECT deadline guarantee
// are the same by construction.
//
// One admission is the stream's own: each magnetometer chunk is
// re-checked via settledMetrics, whose statistics are monotone lower
// bounds of the full-trace values — crossing Mt/βt on a prefix proves
// the complete session would reject, so the loudspeaker stage may trip
// mid-upload (the paper's §IV-B3 signature is strongest in the first
// instants the phone approaches a driver).
//
// A StreamVerifier is not safe for concurrent use: the connection
// handler that owns the stream feeds it frames in arrival order.
type StreamVerifier struct {
	e *evaluator

	pilotHz    float64 // unit: Hz
	sweepStart float64 // unit: s
	sweepEnd   float64 // unit: s

	gyro, accel, mag *sensors.Trace
	capture          *audio.Signal
	// captureChunks and voiceChunks hold an open audio channel's chunks
	// until its last one arrives and offerAudio joins them.
	captureChunks, voiceChunks audioChunks
	// loan is the block AudioBlock last lent, until an offer takes it
	// into its channel.
	loan *audioBlock
}

// audioBlockSamples is the size of the recycled blocks AudioBlock lends:
// one default audio chunk (stream.DefAudioChunkSamples), so every chunk
// a client slicing with the default sizes sends decodes into a block.
const audioBlockSamples = 8192

// audioBlock is one recycled chunk of audio samples.
type audioBlock [audioBlockSamples]float64

// audioBlocks recycles the blocks AudioBlock lends, across sessions: a
// block comes back when offerAudio has copied it into its channel's
// joined slice. The blocks of a session that ends with its channel
// still open are left to the collector.
var audioBlocks = sync.Pool{New: func() any { return new(audioBlock) }}

// audioChunks is an open audio channel's chunks in arrival order, and
// the recycled blocks among them.
type audioChunks struct {
	chunks [][]float64
	lent   []*audioBlock
}

// ErrStreamClosed is returned when chunks are offered to a verifier that
// already reached a terminal state (decided, failed, or abandoned).
var ErrStreamClosed = errors.New("core: stream verifier is closed")

// NewStreamVerifier opens an incremental verification under the given
// trace ID (empty mints one). The root span starts now, so the eventual
// decision's Elapsed covers the whole stream — upload included — which
// is what "time to decision" means on this path.
func (s *System) NewStreamVerifier(traceID string) (*StreamVerifier, error) {
	e, err := s.newEvaluator(traceID, allStages)
	if err != nil {
		return nil, err
	}
	e.root.SetString("transport", "stream")
	v := &StreamVerifier{
		e:     e,
		gyro:  &sensors.Trace{Name: "gyro"},
		accel: &sensors.Trace{Name: "accel"},
		mag:   &sensors.Trace{Name: "mag"},
	}
	e.mag = v.mag
	return v, nil
}

// TraceID returns the session's trace ID.
func (v *StreamVerifier) TraceID() string { return v.e.traceID }

// Decided returns the decision if the session has already been decided,
// else nil.
func (v *StreamVerifier) Decided() *Decision { return v.e.decision }

// OfferHello records the session's identity claim and ranging pilot.
// unit: pilotHz Hz
func (v *StreamVerifier) OfferHello(ctx context.Context, claimedUser string, pilotHz float64) error {
	open, err := v.e.admit(ctx)
	if !open || err != nil {
		return err
	}
	if v.e.closed&chHello != 0 {
		return v.e.fail(fmt.Errorf("core: duplicate hello on stream %s", v.e.traceID))
	}
	v.e.in.ClaimedUser = claimedUser
	v.pilotHz = pilotHz
	v.e.closed |= chHello
	return nil
}

// SetMarks records the ranging sweep boundaries.
// unit: sweepStart s, sweepEnd s
func (v *StreamVerifier) SetMarks(ctx context.Context, sweepStart, sweepEnd float64) error {
	open, err := v.e.admit(ctx)
	if !open || err != nil {
		return err
	}
	v.sweepStart, v.sweepEnd = sweepStart, sweepEnd
	v.e.closed |= chMarks
	return nil
}

// GyroRoom returns n slots past the end of the gyroscope trace, for a
// decoder to fill and pass to OfferGyro, which then appends them in
// place. AccelRoom, MagRoom and FieldRoom do the same for their
// channels. The slots are valid until the next call on the verifier.
func (v *StreamVerifier) GyroRoom(n int) []sensors.Sample { return room(&v.gyro.Samples, n) }

// AccelRoom returns n slots past the end of the accelerometer trace.
func (v *StreamVerifier) AccelRoom(n int) []sensors.Sample { return room(&v.accel.Samples, n) }

// MagRoom returns n slots past the end of the magnetometer trace.
func (v *StreamVerifier) MagRoom(n int) []sensors.Sample { return room(&v.mag.Samples, n) }

// FieldRoom returns n slots past the end of the sound-field sweep.
func (v *StreamVerifier) FieldRoom(n int) []soundfield.Measurement { return room(&v.e.in.Field, n) }

// room grows s's capacity, as appending n elements would, and returns
// the n slots past its end without extending it. Appending exactly
// those slots copies each onto itself.
func room[E any](s *[]E, n int) []E {
	*s = slices.Grow(*s, n)
	return (*s)[len(*s) : len(*s)+n]
}

// AudioBlock lends storage for n samples to decode one audio chunk into
// before offering it with OfferCapture or OfferVoice. Up to 8192
// samples, one default chunk, the storage is a recycled block, which the verifier
// takes back once the channel closes and its chunks are joined; a larger
// n gets a fresh slice. Storage that is not offered before the next
// AudioBlock call is dropped, never recycled: the caller keeps nothing
// it was lent.
func (v *StreamVerifier) AudioBlock(n int) []float64 {
	if n == 0 || n > audioBlockSamples {
		return make([]float64, n)
	}
	v.loan = audioBlocks.Get().(*audioBlock) //lint:allow poolescape lent to one chunk's decode; offerAudio takes it back into its channel and returns it at the join
	return v.loan[:n]
}

// OfferGyro extends the gyroscope trace; last closes the channel. A
// non-nil decision is an early REJECT — the session is over.
func (v *StreamVerifier) OfferGyro(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	return v.offerSensor(ctx, chGyro, v.gyro, samples, last)
}

// OfferAccel extends the accelerometer trace; last closes the channel.
func (v *StreamVerifier) OfferAccel(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	return v.offerSensor(ctx, chAccel, v.accel, samples, last)
}

// OfferMag extends the magnetometer trace; last closes the channel.
// Every magnetometer chunk additionally runs the settled-prefix
// loudspeaker check, so a session waving the phone at a speaker driver
// can reject here long before its audio uploads.
func (v *StreamVerifier) OfferMag(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	open, err := v.e.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if err := v.appendSensor(chMag, v.mag, samples, last); err != nil {
		return nil, v.e.fail(err)
	}
	if v.e.closed&chMag == 0 && v.e.sys.Speaker != nil && !v.e.ran[StageLoudspeaker.slot()] {
		if m, ok := settledMetrics(v.mag); ok && (m.Swing >= v.e.sys.Speaker.Mt || m.MaxRate >= v.e.sys.Speaker.Bt) {
			n := int64(v.mag.Len())
			d, err := v.e.run(ctx, []pending{{StageLoudspeaker, func(e *evaluator, sp *telemetry.Span) StageResult {
				sp.SetBool("settled_prefix", true)
				sp.SetInt("prefix_samples", n)
				return e.sys.Speaker.VerifyMetricsSpan(sp, m)
			}}})
			if d != nil || err != nil {
				return d, err
			}
		}
	}
	return v.advance(ctx)
}

// offerSensor is the shared gyro/accel append-then-advance path.
func (v *StreamVerifier) offerSensor(ctx context.Context, ch channel, tr *sensors.Trace, samples []sensors.Sample, last bool) (*Decision, error) {
	open, err := v.e.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if err := v.appendSensor(ch, tr, samples, last); err != nil {
		return nil, v.e.fail(err)
	}
	return v.advance(ctx)
}

func (v *StreamVerifier) appendSensor(ch channel, tr *sensors.Trace, samples []sensors.Sample, last bool) error {
	if v.e.closed&ch != 0 {
		return fmt.Errorf("core: %s chunk after channel close", tr.Name)
	}
	tr.Samples = append(tr.Samples, samples...)
	if last {
		v.e.closed |= ch
	}
	return nil
}

// OfferField extends the sound-field sweep; last closes the channel.
func (v *StreamVerifier) OfferField(ctx context.Context, points []soundfield.Measurement, last bool) (*Decision, error) {
	open, err := v.e.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if v.e.closed&chField != 0 {
		return nil, v.e.fail(fmt.Errorf("core: field chunk after channel close"))
	}
	v.e.in.Field = append(v.e.in.Field, points...)
	if last {
		v.e.closed |= chField
	}
	return v.advance(ctx)
}

// OfferCapture extends the gesture-capture audio channel (the ranging
// sweep recording); last closes it. Rate must not change mid-channel.
// The verifier keeps samples, without copying, until the channel closes:
// the caller must not modify it before then. Samples that AudioBlock
// lent go back to the recycled blocks then; any other slice stays the
// caller's.
// unit: rate Hz
func (v *StreamVerifier) OfferCapture(ctx context.Context, rate float64, samples []float64, last bool) (*Decision, error) {
	return v.offerAudio(ctx, &v.capture, &v.captureChunks, chCapture, "capture", rate, samples, last)
}

// OfferVoice extends the passphrase audio channel; last closes it. Like
// OfferCapture, it keeps samples until the channel closes.
// unit: rate Hz
func (v *StreamVerifier) OfferVoice(ctx context.Context, rate float64, samples []float64, last bool) (*Decision, error) {
	return v.offerAudio(ctx, &v.e.in.Voice, &v.voiceChunks, chVoice, "voice", rate, samples, last)
}

// offerAudio queues a chunk on its channel. The last chunk joins the
// queue into one exactly sized slice, so a channel's audio is copied
// once however it was chunked; no stage reads it before then. The join
// returns the channel's lent blocks to the pool: it is the one place a
// block goes back, and only blocks AudioBlock lent are on that list.
// unit: rate Hz
func (v *StreamVerifier) offerAudio(ctx context.Context, sig **audio.Signal, q *audioChunks, ch channel, name string, rate float64, samples []float64, last bool) (*Decision, error) {
	open, err := v.e.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if v.e.closed&ch != 0 {
		return nil, v.e.fail(fmt.Errorf("core: %s audio chunk after channel close", name))
	}
	if *sig == nil {
		*sig = &audio.Signal{Rate: rate}
	} else if (*sig).Rate != rate { //lint:allow floatcmp the wire carries exact float64 bits; any change is a protocol error
		return nil, v.e.fail(fmt.Errorf("core: %s audio rate changed mid-stream (%v -> %v)", name, (*sig).Rate, rate))
	}
	q.chunks = append(q.chunks, samples)
	if v.loan != nil && len(samples) > 0 && &samples[0] == &v.loan[0] {
		q.lent = append(q.lent, v.loan)
		v.loan = nil
	}
	if last {
		n := 0
		for _, c := range q.chunks {
			n += len(c)
		}
		joined := make([]float64, 0, n)
		for _, c := range q.chunks {
			joined = append(joined, c...)
		}
		(*sig).Samples = joined
		for _, b := range q.lent {
			audioBlocks.Put(b)
		}
		*q = audioChunks{}
		v.e.closed |= ch
	}
	return v.advance(ctx)
}

// Finish seals the session: every channel must be closed, the assembled
// session must validate, and every configured stage must have run (the
// stages admitted last run here). Accept requires all of them to pass —
// identical to the HTTP cascade.
func (v *StreamVerifier) Finish(ctx context.Context) (Decision, error) {
	e := v.e
	if e.decision != nil {
		return *e.decision, nil
	}
	if _, err := e.admit(ctx); err != nil {
		return Decision{TraceID: e.traceID}, err
	}
	if e.closed&(chHello|chMarks) != chHello|chMarks {
		return Decision{TraceID: e.traceID}, e.fail(fmt.Errorf("core: finish before hello/segment marks"))
	}
	// A fixed order, so the error names the same channel every time.
	for _, ch := range [...]struct {
		name string
		ch   channel
	}{
		{"gyro", chGyro}, {"accel", chAccel}, {"mag", chMag},
		{"field", chField}, {"capture", chCapture}, {"voice", chVoice},
	} {
		if e.closed&ch.ch == 0 {
			return Decision{TraceID: e.traceID}, e.fail(fmt.Errorf("core: finish before %s channel closed", ch.name))
		}
	}
	// Validation parity with the HTTP path: the same session contents
	// must clear the same bar before a verdict exists.
	if err := v.buildGesture(); err != nil {
		return Decision{TraceID: e.traceID}, e.fail(err)
	}
	if err := e.in.Validate(); err != nil {
		return Decision{TraceID: e.traceID}, e.fail(err)
	}
	return e.finish(ctx)
}

// Abandon terminates an undecided session without a verdict (connection
// loss, deadline, shutdown). The trace records the outcome so abandoned
// streams are distinguishable in the flight recorder; like the HTTP
// deadline path it never fabricates a rejection.
func (v *StreamVerifier) Abandon(outcome string) { v.e.abandon(outcome) }

// advance fuses the gesture once its channels are closed (only when the
// distance stage needs it before Finish), then runs every stage the
// closed channels admit. A non-nil decision is a REJECT (early relative
// to the frames still in flight).
func (v *StreamVerifier) advance(ctx context.Context) (*Decision, error) {
	if v.e.sys.Distance != nil {
		if err := v.buildGesture(); err != nil {
			return nil, v.e.fail(err)
		}
	}
	return v.e.advance(ctx)
}

// buildGesture fuses the sensor and capture channels into the gesture
// once they are all closed, closing the gesture channel. Idempotent.
func (v *StreamVerifier) buildGesture() error {
	if v.e.closed&chGesture != 0 || v.e.closed&gestureInputs != gestureInputs {
		return nil
	}
	g, err := trajectory.FromUpload(v.gyro, v.accel, v.mag, v.capture, v.pilotHz, v.sweepStart, v.sweepEnd)
	if err != nil {
		return err
	}
	v.e.in.Gesture = g
	v.e.closed |= chGesture
	return nil
}
