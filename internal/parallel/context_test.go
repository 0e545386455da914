package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoContextBackgroundRunsEverything checks the uncancellable fast
// path: every task runs to completion and the call reports success, like
// plain Do.
func TestDoContextBackgroundRunsEverything(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var ran atomic.Int32
		tasks := make([]func(), 5)
		for i := range tasks {
			tasks[i] = func() { ran.Add(1) }
		}
		if err := DoContext(ctx, tasks...); err != nil {
			t.Fatalf("DoContext = %v", err)
		}
		if ran.Load() != 5 {
			t.Fatalf("ran %d of 5 tasks", ran.Load())
		}
	}
}

// TestDoContextPreCancelledRunsNothing checks that a context that is
// already dead admits no work at all.
func TestDoContextPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := DoContext(ctx, func() { ran.Add(1) }, func() { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DoContext = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled context still ran %d tasks", ran.Load())
	}
}

// TestDoContextAbandonsHungTask checks the load-shedding contract: a task
// that outlives the context is abandoned — DoContext returns the context
// error promptly — while the task itself detaches and finishes in the
// background without tripping the race detector.
func TestDoContextAbandonsHungTask(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})
	var fast atomic.Int32
	returned := make(chan error, 1)
	go func() {
		returned <- DoContext(ctx,
			func() { fast.Add(1) },
			func() {
				close(started)
				<-release
				close(finished)
			},
		)
	}()
	// Cancel only once the hung task is provably in flight, otherwise the
	// pre-cancellation entry check legitimately runs nothing at all.
	<-started
	cancel()
	select {
	case err := <-returned:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DoContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DoContext did not return after cancellation")
	}
	// The hung task is still alive; let it finish and observe completion
	// so the detached goroutine does not outlive the test.
	close(release)
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned task never completed")
	}
}

// TestDoContextCompletedBeatsCancellation checks that a batch whose tasks
// all finished reports success even when the context dies around the same
// time — completion is never misreported as a timeout.
func TestDoContextCompletedBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	if err := DoContext(ctx, func() { ran.Add(1) }); err != nil {
		t.Fatalf("DoContext = %v", err)
	}
	if ran.Load() != 1 {
		t.Fatal("task did not run")
	}
}

// TestDoContextEmpty checks the degenerate call.
func TestDoContextEmpty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := DoContext(ctx); err != nil {
		t.Fatalf("DoContext() = %v", err)
	}
}

// BenchmarkDoContextBackground pins the uncancellable fast path against
// plain Do: an uncancellable context must add no goroutines, channels or
// allocations beyond Do itself, so VerifyContext under
// context.Background() (and Verify, which calls it so) stays
// benchmark-neutral.
func BenchmarkDoContextBackground(b *testing.B) {
	ctx := context.Background()
	fns := []func(){func() {}, func() {}, func() {}, func() {}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DoContext(ctx, fns...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDo is the baseline for BenchmarkDoContextBackground.
func BenchmarkDo(b *testing.B) {
	fns := []func(){func() {}, func() {}, func() {}, func() {}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Do(fns...)
	}
}
