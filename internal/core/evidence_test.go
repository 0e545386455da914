package core

import (
	"testing"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/evidence"
	"voiceguard/internal/geometry"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/trajectory"
)

func evidenceTestSession() *SessionData {
	tr := func(name string) *sensors.Trace {
		t := &sensors.Trace{Name: name}
		for i := 0; i < 5; i++ {
			t.Samples = append(t.Samples, sensors.Sample{
				T: float64(i) * 0.01,
				V: geometry.Vec3{X: float64(i), Y: -0.5, Z: 42.1},
			})
		}
		return t
	}
	return &SessionData{
		ClaimedUser: "victim",
		Gesture: &trajectory.Gesture{
			Gyro:       tr("gyro"),
			Accel:      tr("accel"),
			Mag:        tr("mag"),
			Capture:    &audio.Signal{Rate: 16000, Samples: []float64{0.1, -0.2, 0.3}},
			SweepStart: 0.5,
			SweepEnd:   1.5,
		},
		Field: []soundfield.Measurement{
			{AngleDeg: -30, FreqHz: 1000, LevelDB: 62.5},
			{AngleDeg: 30, FreqHz: 1000, LevelDB: 61.0},
		},
		Voice: &audio.Signal{Rate: 16000, Samples: []float64{0.01, 0.02, -0.03}},
	}
}

func TestSessionDigestStable(t *testing.T) {
	s := evidenceTestSession()
	d1 := SessionDigest(s)
	d2 := SessionDigest(s)
	if d1 != d2 {
		t.Fatalf("SessionDigest not deterministic: %s vs %s", d1, d2)
	}
	if !evidence.ValidDigest(d1) {
		t.Fatalf("malformed session digest %q", d1)
	}
	s.Voice.Samples[0] += 1e-12
	if SessionDigest(s) == d1 {
		t.Fatal("session digest insensitive to a one-ULP-scale sample change")
	}
}

func TestAudioDigestFrames(t *testing.T) {
	sig := &audio.Signal{Rate: 16000, Samples: make([]float64, 1000)}
	for i := range sig.Samples {
		sig.Samples[i] = float64(i) / 1000
	}
	ad := AudioDigest("voice", sig, 400)
	if ad.Samples != 1000 || ad.FrameLen != 400 {
		t.Fatalf("AudioDigest geometry: %+v", ad)
	}
	if len(ad.FrameDigests) != 3 { // 400 + 400 + 200
		t.Fatalf("frame digest count %d, want 3", len(ad.FrameDigests))
	}
	if !evidence.ValidDigest(ad.Digest) {
		t.Fatalf("malformed whole-signal digest %q", ad.Digest)
	}
	again := AudioDigest("voice", sig, 400)
	if again.Digest != ad.Digest || again.FrameDigests[2] != ad.FrameDigests[2] {
		t.Fatal("AudioDigest not deterministic")
	}
}

// TestSystemModelDigestsStable asserts two systems built from the same
// seed digest identically — the property pack replay's model check rests
// on — and that a different seed digests differently.
func TestSystemModelDigestsStable(t *testing.T) {
	build := func(seed int64) map[string]string {
		t.Helper()
		sys, err := BuildSystem(SystemConfig{FieldSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.ModelDigests()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build(7)
	b := build(7)
	if len(a) == 0 {
		t.Fatal("no model digests")
	}
	for k, v := range a {
		if !evidence.ValidDigest(v) {
			t.Fatalf("model %s: malformed digest %q", k, v)
		}
		if b[k] != v {
			t.Fatalf("model %s: same seed digests differ: %s vs %s", k, v, b[k])
		}
	}
	c := build(8)
	same := true
	for k, v := range a {
		if c[k] != v {
			same = false
		}
	}
	if same {
		t.Fatal("different field seeds produced identical model digests")
	}
}

func TestDecisionEvidenceProjection(t *testing.T) {
	d := Decision{
		Accepted:    false,
		FailedStage: StageLoudspeaker,
		TraceID:     "t-1",
		Elapsed:     1500 * time.Microsecond,
		Stages: []StageResult{
			{Stage: StageDistance, Pass: true, Score: 0.015, Detail: "ok", Elapsed: 200 * time.Microsecond},
			{Stage: StageSoundField, Pass: true, Score: 0.4},
			{Stage: StageLoudspeaker, Pass: false, Score: -130.2, Detail: "magnet"},
		},
	}
	rec := DecisionEvidence(d)
	if rec.TraceID != "t-1" || rec.Accepted || rec.FailedStage != "loudspeaker" {
		t.Fatalf("projection header: %+v", rec)
	}
	if rec.ElapsedUS != 1500 {
		t.Fatalf("ElapsedUS = %d", rec.ElapsedUS)
	}
	if len(rec.Stages) != 3 {
		t.Fatalf("stage count %d", len(rec.Stages))
	}
	if rec.Stages[0].Stage != "distance" || !rec.Stages[0].Pass || rec.Stages[0].ElapsedUS != 200 {
		t.Fatalf("stage 0: %+v", rec.Stages[0])
	}
	if rec.Stages[2].ScoreBits != evidence.FloatBits(-130.2) {
		t.Fatalf("score bits %s", rec.Stages[2].ScoreBits)
	}
}
