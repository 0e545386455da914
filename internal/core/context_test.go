package core

// Deadline tests: VerifyContext must bound the cascade by its request
// context — abandoning speculative stages, never converting a timeout
// into a biometric verdict, and matching the no-deadline Verify when the
// context cannot cancel.

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// hungSystem returns a distance-only system whose single stage hangs in
// the StageHook until test cleanup — a genuinely stuck back-end, not one
// that conveniently recovers at the deadline. started reports each hook
// entry; the hung goroutine detaches at the deadline and is released when
// the test ends.
func hungSystem(t *testing.T, seed int64) (*System, chan struct{}) {
	t.Helper()
	sys, err := BuildSystem(SystemConfig{FieldSeed: seed, DisableField: true, DisableMagnetic: true})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	sys.StageHook = func(ctx context.Context, st Stage) {
		started <- struct{}{}
		<-release
	}
	return sys, started
}

func TestVerifyContextNilAndBackgroundMatchVerify(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 21, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(21)))
	session := genuineSessionFor(t, victim, "135792", 21)

	want, err := sys.Verify(session)
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{
		"nil": nil, "background": context.Background(),
	} {
		got, err := sys.VerifyContext(ctx, "req-ctx-1", session)
		if err != nil {
			t.Fatalf("%s: VerifyContext: %v", name, err)
		}
		if got.Accepted != want.Accepted || got.FailedStage != want.FailedStage ||
			len(got.Stages) != len(want.Stages) {
			t.Errorf("%s: decision %+v diverges from Verify %+v", name, got, want)
		}
		if got.TraceID != "req-ctx-1" {
			t.Errorf("%s: TraceID = %q, want the caller's req-ctx-1", name, got.TraceID)
		}
	}
}

func TestVerifyContextPreExpiredReturnsDeadlineError(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 22, DisableField: true, DisableMagnetic: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(22)))
	session := genuineSessionFor(t, victim, "135792", 22)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := sys.VerifyContext(ctx, "req-expired", session)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if d.TraceID != "req-expired" {
		t.Errorf("TraceID = %q; even abandoned attempts must correlate", d.TraceID)
	}
	if d.Accepted || len(d.Stages) != 0 {
		t.Errorf("pre-expired verify fabricated a decision: %+v", d)
	}
}

func TestVerifyContextDeadlineAbandonsHungStage(t *testing.T) {
	sys, started := hungSystem(t, 23)
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(23)))
	session := genuineSessionFor(t, victim, "135792", 23)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	d, err := sys.VerifyContext(ctx, "req-hung", session)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if waited := time.Since(begin); waited > 5*time.Second {
		t.Fatalf("verify held the caller %v past a 50ms deadline", waited)
	}
	if d.Accepted {
		t.Error("abandoned verify reported ACCEPT")
	}
	if d.TraceID != "req-hung" {
		t.Errorf("TraceID = %q", d.TraceID)
	}
	select {
	case <-started:
	default:
		t.Error("stage hook never entered; the test exercised nothing")
	}
}

// TestVerifyContextDeadlineRecordsSpanAttr pins the observability
// contract: an abandoned attempt lands in the flight recorder as a
// non-accepted trace whose root span carries outcome=deadline_exceeded.
func TestVerifyContextDeadlineRecordsSpanAttr(t *testing.T) {
	sys, _ := hungSystem(t, 24)
	rec := telemetry.NewFlightRecorder(4)
	sys.Tracer = telemetry.NewTracer(telemetry.TracerConfig{Recorder: rec})
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(24)))
	session := genuineSessionFor(t, victim, "135792", 24)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sys.VerifyContext(ctx, "req-span", session); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	tr := rec.Find("req-span")
	if tr == nil {
		t.Fatal("abandoned attempt not recorded in the flight recorder")
	}
	if tr.Accepted {
		t.Error("abandoned trace marked accepted")
	}
	var root *telemetry.SpanRecord
	for i := range tr.Spans {
		if tr.Spans[i].ParentID == "" {
			root = &tr.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no root span in recorded trace")
	}
	attr, ok := root.Attr("outcome")
	if !ok || attr.Str != "deadline_exceeded" {
		t.Errorf("root outcome attr = %+v, want deadline_exceeded", attr)
	}
}

// TestVerifyContextAbandonedStageNeverRejects drives the race where the
// context dies while the fan-out is admitting stages: whichever interleaving
// occurs, the caller sees a deadline error, never a fabricated REJECT.
func TestVerifyContextAbandonedStageNeverRejects(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 25, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(25)))
	session := genuineSessionFor(t, victim, "135792", 25)
	// The hook cancels the context from inside the first admitted stage,
	// so the remaining speculative stages hit a dead context at their
	// admission checks while the fan-out itself still completes. Each
	// iteration's cancel rides in its own context: a stage detached from
	// an earlier iteration may still reach the hook while the next runs.
	type cancelKey struct{}
	sys.StageHook = func(ctx context.Context, st Stage) { ctx.Value(cancelKey{}).(context.CancelFunc)() }
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ctx = context.WithValue(ctx, cancelKey{}, cancel)
		d, err := sys.VerifyContext(ctx, "req-race", session)
		cancel()
		switch {
		case err == nil:
			// The fan-out won the race: every stage genuinely ran, so the
			// only honest verdict for a genuine session is ACCEPT.
			if !d.Accepted {
				t.Fatalf("iteration %d: abandonment surfaced as REJECT: %+v", i, d)
			}
		case !errors.Is(err, context.Canceled):
			t.Fatalf("iteration %d: err = %v, want nil or wrapped context.Canceled", i, err)
		}
	}
}
