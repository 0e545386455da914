// Package parallel is the execution layer for the numeric hot path: a
// GOMAXPROCS-sized fork-join helper used by the DSP, feature-extraction
// and GMM-scoring stages to fan independent per-frame work out across
// cores. The design rules, in order of importance:
//
//   - Determinism. Work is split into contiguous index blocks and every
//     result is written to its own output index, so the output is
//     bit-identical to a serial loop regardless of scheduling, worker
//     count or GOMAXPROCS. There are no atomics in the reduction path —
//     callers that need a scalar reduce the per-index results serially.
//   - Serial fallback. Small inputs (below a fixed threshold) and
//     single-CPU processes run the plain loop on the caller's goroutine:
//     no goroutines, no synchronization, identical results.
//   - No retained state. The package keeps no worker pool alive between
//     calls; a fork-join burst is cheap (one WaitGroup, W-1 goroutines)
//     and keeps the package trivially correct under concurrent use.
//
// DoContext is the deadline-aware sibling of Do for the serving path: it
// stops waiting when the request context dies so a hung pipeline stage
// cannot hold its connection forever. Cancellation only abandons the
// wait — tasks already running detach and finish in the background — so
// determinism of completed work is unchanged.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// minParallel is the smallest n worth forking for. Below this the
// per-goroutine overhead (~1µs each) dominates any conceivable per-item
// win, so For and Range run serially.
const minParallel = 8

// Workers returns the number of workers a fan-out call will use: GOMAXPROCS,
// the same sizing the Go runtime uses for its own scheduling.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n), fanning the index space out over
// Workers() contiguous blocks. fn must be safe to call concurrently for
// distinct i and must write results only to per-i locations. Results are
// deterministic: the partition affects only scheduling, never output.
// n below the internal threshold (or a single-CPU process) runs serially
// on the calling goroutine.
func For(n int, fn func(i int)) {
	Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Range partitions [0, n) into at most Workers() contiguous [lo, hi)
// blocks and runs fn on each block concurrently. It is the batched form
// of For: callers that need per-worker scratch (a pooled FFT buffer, a
// responsibility vector) acquire it once per block instead of once per
// index. fn must treat the blocks as disjoint; Range returns when every
// block is done. n below minParallel, or a single-CPU process, runs
// fn(0, n) on the calling goroutine.
func Range(n int, fn func(lo, hi int)) {
	w := Workers()
	if n <= 0 {
		return
	}
	if w < 2 || n < minParallel {
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	// Block b covers [b*n/w, (b+1)*n/w): the same even partition every
	// call, so scheduling is reproducible given n and GOMAXPROCS.
	for b := 1; b < w; b++ {
		lo, hi := b*n/w, (b+1)*n/w
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	fn(0, n/w)
	wg.Wait()
}

// Do runs the given functions concurrently and returns when all are done.
// It is the coarse-grained sibling of Range for a handful of expensive,
// heterogeneous tasks (pipeline stages) rather than a large uniform index
// space: no minimum-size threshold applies, the caller's goroutine runs
// the first task, and a single-CPU process runs everything serially in
// argument order. Each task must write only to its own result location.
func Do(fns ...func()) {
	if len(fns) < 2 || Workers() < 2 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[1:] {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	fns[0]()
	wg.Wait()
}

// DoContext runs the given functions concurrently like Do, but stops
// waiting when ctx is cancelled: it returns ctx.Err() as soon as the
// context dies, even if some functions are still running. Goroutines
// cannot be killed, so an unfinished function detaches and runs to
// completion in the background — after a non-nil return the caller must
// not read the result locations of tasks it cannot prove finished, and
// each fn should observe ctx itself to stop early. A context that cannot
// be cancelled (ctx.Done() == nil, e.g. context.Background()) delegates
// to Do — the zero-overhead fast path the untimed serving path and the
// benchmarks take. Unlike Do, a cancellable context launches every fn on
// its own goroutine (including the first) so the caller stays free to
// return at cancellation.
func DoContext(ctx context.Context, fns ...func()) error {
	if ctx == nil || ctx.Done() == nil {
		Do(fns...)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(fns) == 0 {
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The tasks may have completed in the same instant the context
		// died; a finished batch is a success regardless of which channel
		// the select drew first.
		select {
		case <-done:
			return nil
		default:
			return ctx.Err()
		}
	}
}
