package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"voiceguard/internal/audio"
	"voiceguard/internal/geometry"
	"voiceguard/internal/ranging"
	"voiceguard/internal/sensors"
	"voiceguard/internal/speech"
	"voiceguard/internal/trajectory"
)

// feedStream replays a session's channels through a StreamVerifier the
// way the protocol bridge does: hello and marks first, sensors in small
// chunks, then field, capture and voice. The magnetometer, the earliest
// decisive channel, leads; magLast moves it behind the voice instead, so
// its closing chunk admits the distance and loudspeaker stages together.
// splitAudio chunks each audio channel (nil offers it whole). It returns
// the decision, whether it arrived before Finish, and the verifier.
func feedStream(t *testing.T, sys *System, session *SessionData, chunk int, splitAudio func([]float64) [][]float64, magLast bool) (Decision, bool, *StreamVerifier) {
	t.Helper()
	ctx := context.Background()
	v, err := sys.NewStreamVerifier("stream-test")
	if err != nil {
		t.Fatal(err)
	}
	g := session.Gesture
	if err := v.OfferHello(ctx, session.ClaimedUser, ranging.DefaultPilotHz); err != nil {
		t.Fatal(err)
	}
	if err := v.SetMarks(ctx, g.SweepStart, g.SweepEnd); err != nil {
		t.Fatal(err)
	}
	offerTrace := func(tr *sensors.Trace, offer func(context.Context, []sensors.Sample, bool) (*Decision, error)) func() (*Decision, error) {
		return func() (*Decision, error) {
			for off := 0; off < len(tr.Samples); off += chunk {
				end := min(off+chunk, len(tr.Samples))
				d, err := offer(ctx, tr.Samples[off:end], end == len(tr.Samples))
				if d != nil || err != nil {
					return d, err
				}
			}
			return nil, nil
		}
	}
	if splitAudio == nil {
		splitAudio = func(s []float64) [][]float64 { return [][]float64{s} }
	}
	offerAudio := func(sig *audio.Signal, offer func(context.Context, float64, []float64, bool) (*Decision, error)) func() (*Decision, error) {
		return func() (*Decision, error) {
			chunks := splitAudio(sig.Samples)
			for i, c := range chunks {
				if d, err := offer(ctx, sig.Rate, c, i == len(chunks)-1); d != nil || err != nil {
					return d, err
				}
			}
			return nil, nil
		}
	}
	mag := offerTrace(g.Mag, v.OfferMag)
	steps := []func() (*Decision, error){
		mag,
		offerTrace(g.Gyro, v.OfferGyro),
		offerTrace(g.Accel, v.OfferAccel),
		func() (*Decision, error) { return v.OfferField(ctx, session.Field, true) },
		offerAudio(g.Capture, v.OfferCapture),
		offerAudio(session.Voice, v.OfferVoice),
	}
	if magLast {
		steps = append(steps[1:], mag)
	}
	for _, step := range steps {
		if d, err := step(); d != nil || err != nil {
			if err != nil {
				t.Fatal(err)
			}
			return *d, true, v
		}
	}
	d, err := v.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return d, false, v
}

// rebuiltSession mirrors what the HTTP path verifies: the gesture is
// re-fused from the raw uploaded traces (protocol.ToSession calls
// trajectory.FromUpload), so both protocols must verify the *same*
// re-fused inputs for score bits to compare.
func rebuiltSession(t *testing.T, session *SessionData) *SessionData {
	t.Helper()
	g := session.Gesture
	rg, err := trajectory.FromUpload(g.Gyro, g.Accel, g.Mag, g.Capture,
		ranging.DefaultPilotHz, g.SweepStart, g.SweepEnd)
	if err != nil {
		t.Fatal(err)
	}
	return &SessionData{
		ClaimedUser: session.ClaimedUser,
		Gesture:     rg,
		Field:       session.Field,
		Voice:       session.Voice,
	}
}

// TestStreamVerifierAudioChunkingIsInvisible offers one genuine
// session's capture and voice under several chunkings. The joined audio,
// every stage score and the decision must not depend on where the chunk
// boundaries fall, and each joined channel must be one exactly sized
// slice of its own.
func TestStreamVerifierAudioChunkingIsInvisible(t *testing.T) {
	victim := speech.NewDistinctRoster(2, 200, 1.2).Profiles()[0]
	sys := fullSystem(t, victim, "135792", 200)
	session := genuineSessionFor(t, victim, "135792", 201)

	// Chunks are fresh copies, as protocol.ApplyStreamFrame offers them,
	// and are recorded so the joined slices can be checked against them.
	var offered [][]float64
	every := func(n int) func([]float64) [][]float64 {
		return func(s []float64) [][]float64 {
			var out [][]float64
			for off := 0; off < len(s); off += n {
				out = append(out, slices.Clone(s[off:min(off+n, len(s))]))
			}
			offered = append(offered, out...)
			return out
		}
	}
	emptyMidway := func(s []float64) [][]float64 {
		h := len(s) / 2
		out := [][]float64{slices.Clone(s[:h]), {}, slices.Clone(s[h:])}
		offered = append(offered, out...)
		return out
	}
	chunkings := []struct {
		name  string
		split func([]float64) [][]float64
	}{
		{"one chunk", every(math.MaxInt)},
		{"8192 samples", every(8192)},
		{"1000 samples", every(1000)},
		{"empty chunk midway", emptyMidway},
	}
	overlaps := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return false
		}
		const size = unsafe.Sizeof(float64(0))
		a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
		return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
	}

	var ref Decision
	for i, c := range chunkings {
		offered = nil
		d, early, v := feedStream(t, sys, session, 64, c.split, false)
		if early || !d.Accepted {
			t.Fatalf("%s: genuine session early=%v accepted=%v", c.name, early, d.Accepted)
		}
		for _, ch := range []struct {
			name         string
			joined, want []float64
		}{
			{"capture", v.capture.Samples, session.Gesture.Capture.Samples},
			{"voice", v.e.in.Voice.Samples, session.Voice.Samples},
		} {
			if len(ch.joined) != len(ch.want) || cap(ch.joined) != len(ch.joined) {
				t.Fatalf("%s: %s joined len %d cap %d, want len = cap = %d",
					c.name, ch.name, len(ch.joined), cap(ch.joined), len(ch.want))
			}
			for j := range ch.want {
				if math.Float64bits(ch.joined[j]) != math.Float64bits(ch.want[j]) {
					t.Fatalf("%s: %s sample %d bits differ", c.name, ch.name, j)
				}
			}
			for _, o := range offered {
				if overlaps(ch.joined, o) {
					t.Fatalf("%s: joined %s aliases an offered chunk", c.name, ch.name)
				}
			}
		}
		if i == 0 {
			ref = d
			continue
		}
		if d.Accepted != ref.Accepted || d.FailedStage != ref.FailedStage || len(d.Stages) != len(ref.Stages) {
			t.Fatalf("%s: decision %v differs from one chunk's %v", c.name, d.String(), ref.String())
		}
		for j, st := range d.Stages {
			if st.Stage != ref.Stages[j].Stage || math.Float64bits(st.Score) != math.Float64bits(ref.Stages[j].Score) {
				t.Errorf("%s: stage %v score bits %x, one chunk gave %x", c.name, st.Stage,
					math.Float64bits(st.Score), math.Float64bits(ref.Stages[j].Score))
			}
		}
	}
}

// TestStreamVerifierFinishNamesOpenChannelsInOrder finishes a session
// with the gyro and voice channels still open: the error must name the
// same channel, gyro, every time.
func TestStreamVerifierFinishNamesOpenChannelsInOrder(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 330})
	if err != nil {
		t.Fatal(err)
	}
	// Only the distance stage, which waits on the gyro: closing the
	// other channels (empty) admits no stage and so decides nothing.
	sys.Field, sys.Speaker = nil, nil
	ctx := context.Background()
	const want = "core: finish before gyro channel closed"
	for i := 0; i < 20; i++ {
		v, err := sys.NewStreamVerifier("open-channels")
		if err != nil {
			t.Fatal(err)
		}
		if err := v.OfferHello(ctx, "u", ranging.DefaultPilotHz); err != nil {
			t.Fatal(err)
		}
		if err := v.SetMarks(ctx, 0.5, 2); err != nil {
			t.Fatal(err)
		}
		for _, offer := range []func() (*Decision, error){
			func() (*Decision, error) { return v.OfferAccel(ctx, nil, true) },
			func() (*Decision, error) { return v.OfferMag(ctx, nil, true) },
			func() (*Decision, error) { return v.OfferField(ctx, nil, true) },
			func() (*Decision, error) { return v.OfferCapture(ctx, 44100, nil, true) },
		} {
			if d, err := offer(); d != nil || err != nil {
				t.Fatalf("closing a channel: decision %v, err %v", d, err)
			}
		}
		if _, err := v.Finish(ctx); err == nil || err.Error() != want {
			t.Fatalf("finish %d: err = %v, want %q", i, err, want)
		}
	}
}

// magneticAttackSession plants a loudspeaker-grade magnetic swing in the
// second half of an otherwise genuine session's magnetometer trace, so a
// chunked upload trips the settled-prefix check mid-channel.
func magneticAttackSession(t *testing.T, victim speech.Profile, seed int64) *SessionData {
	t.Helper()
	session := genuineSessionFor(t, victim, "135792", seed)
	mag := session.Gesture.Mag
	n := mag.Len()
	for i := n / 2; i < n; i++ {
		// Ramp toward a strong driver field: tens of µT over ~100 ms.
		mag.Samples[i].V = geometry.Vec3{X: 40 + float64(i-n/2)*2, Y: 5, Z: -30}
	}
	return session
}

func TestStreamVerifierEarlyRejectsOnMagnetometerPrefix(t *testing.T) {
	victim := speech.NewDistinctRoster(2, 200, 1.2).Profiles()[0]
	sys := fullSystem(t, victim, "135792", 200)
	session := magneticAttackSession(t, victim, 201)

	streamed, early, v := feedStream(t, sys, session, 16, nil, false)
	if streamed.Accepted {
		t.Fatal("loudspeaker session accepted")
	}
	if !early {
		t.Fatal("loudspeaker session not decided before finish")
	}
	if streamed.FailedStage != StageLoudspeaker {
		t.Fatalf("failed stage = %v, want loudspeaker", streamed.FailedStage)
	}
	// The batch path agrees on the verdict (early exit is sound).
	batch, err := sys.VerifyContext(context.Background(), "batch-mag", rebuiltSession(t, session))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Accepted {
		t.Fatal("batch accepted the loudspeaker session the stream rejected")
	}
	// Trailing chunks after the decision are swallowed, and Finish
	// replays the decision idempotently.
	if d, err := v.OfferVoice(context.Background(), 16000, []float64{0}, true); d != nil || err != nil {
		t.Fatalf("post-decision chunk: d=%v err=%v", d, err)
	}
	again, err := v.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.TraceID != streamed.TraceID || again.Accepted != streamed.Accepted {
		t.Fatal("Finish after decision did not replay the decision")
	}
}

func TestStreamVerifierAbandonsOnDeadContext(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 320})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.NewStreamVerifier("dead-ctx")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.OfferMag(ctx, []sensors.Sample{{T: 0}}, false); err == nil {
		t.Fatal("dead context admitted a chunk")
	}
	// The verifier is terminally closed, never deciding.
	if _, err := v.Finish(context.Background()); err == nil {
		t.Fatal("abandoned stream produced a verdict")
	}
	if v.Decided() != nil {
		t.Fatal("abandoned stream has a decision")
	}
}

func TestStreamVerifierRefusesMalformedStreams(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 330})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	v, err := sys.NewStreamVerifier("")
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID() == "" {
		t.Fatal("no trace ID minted")
	}
	if err := v.OfferHello(ctx, "u", 19000); err != nil {
		t.Fatal(err)
	}
	if err := v.OfferHello(ctx, "u", 19000); err == nil {
		t.Fatal("duplicate hello accepted")
	}

	v2, err := sys.NewStreamVerifier("closed-channel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.OfferGyro(ctx, nil, true); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.OfferGyro(ctx, []sensors.Sample{{T: 1}}, false); err == nil {
		t.Fatal("chunk after channel close accepted")
	}
	// A failed stream refuses everything afterward.
	if _, err := v2.OfferAccel(ctx, nil, true); err == nil {
		t.Fatal("closed verifier admitted a chunk")
	}

	v3, err := sys.NewStreamVerifier("premature-finish")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Finish(ctx); err == nil {
		t.Fatal("finish before any channel closed produced a verdict")
	}
}

// TestSettledMetricsIsMonotoneLowerBound pins the soundness invariant of
// the early exit: on every prefix of a noisy trace, the settled swing
// and rate never exceed the full-trace Measure values, and never
// decrease as the prefix grows.
func TestSettledMetricsIsMonotoneLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	full := &sensors.Trace{Name: "mag"}
	for i := 0; i < 200; i++ {
		full.Samples = append(full.Samples, sensors.Sample{
			T: float64(i) * 0.01,
			V: geometry.Vec3{
				X: 30 + rng.NormFloat64()*3 + float64(i)*0.2,
				Y: rng.NormFloat64() * 3,
				Z: -20 + rng.NormFloat64()*3,
			},
		})
	}
	final := Measure(full)
	var prevSwing, prevRate float64
	for n := 2; n <= len(full.Samples); n++ {
		prefix := &sensors.Trace{Name: "mag", Samples: full.Samples[:n]}
		m, ok := settledMetrics(prefix)
		if !ok {
			continue
		}
		if m.Swing > final.Swing || m.MaxRate > final.MaxRate {
			t.Fatalf("prefix %d exceeds final metrics: %+v vs %+v", n, m, final)
		}
		if m.Swing < prevSwing || m.MaxRate < prevRate {
			t.Fatalf("prefix %d not monotone: %+v after swing=%v rate=%v", n, m, prevSwing, prevRate)
		}
		prevSwing, prevRate = m.Swing, m.MaxRate
	}
	if _, ok := settledMetrics(nil); ok {
		t.Fatal("nil trace produced settled metrics")
	}
	if _, ok := settledMetrics(&sensors.Trace{Samples: full.Samples[:2]}); ok {
		t.Fatal("2-sample trace produced settled metrics")
	}
}
