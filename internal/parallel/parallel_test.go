package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversEveryIndexOnce checks that every index is visited exactly
// once for sizes around the serial threshold and the worker count.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 1000} {
		hits := make([]int32, n)
		For(n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// TestRangeBlocksPartition checks that Range's blocks tile [0, n) exactly.
func TestRangeBlocksPartition(t *testing.T) {
	for _, n := range []int{1, 8, 17, 100, 1001} {
		covered := make([]int32, n)
		Range(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("n=%d: bad block [%d, %d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

// TestRangeSerialFallback checks the serial threshold: below
// minParallel, and for any n in a single-CPU process, the whole range
// arrives as one block, [0, n).
func TestRangeSerialFallback(t *testing.T) {
	oneBlock := func(n int) {
		t.Helper()
		var blocks [][2]int
		Range(n, func(lo, hi int) {
			blocks = append(blocks, [2]int{lo, hi})
		})
		if len(blocks) != 1 || blocks[0] != [2]int{0, n} {
			t.Errorf("GOMAXPROCS=%d n=%d: blocks = %v, want one [0, %d)", runtime.GOMAXPROCS(0), n, blocks, n)
		}
	}
	oneBlock(minParallel - 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	oneBlock(1000)
}

// TestSmallInputStaysOnCallerGoroutine checks the serial fallback: below
// the threshold no new goroutines run the body.
func TestSmallInputStaysOnCallerGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	For(minParallel-1, func(i int) {
		if g := runtime.NumGoroutine(); g > before+1 {
			// Allow unrelated runtime goroutines a little slack; the
			// fork path would add Workers()-1 at once.
			t.Errorf("serial fallback spawned goroutines: %d > %d", g, before)
		}
	})
}

// TestDoRunsEveryTask checks that Do executes each task exactly once and
// writes land in per-task slots, for 0..5 tasks (spanning the serial and
// forked paths).
func TestDoRunsEveryTask(t *testing.T) {
	for n := 0; n <= 5; n++ {
		hits := make([]int32, n)
		tasks := make([]func(), n)
		for i := range tasks {
			tasks[i] = func() { atomic.AddInt32(&hits[i], 1) }
		}
		Do(tasks...)
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: task %d ran %d times", n, i, h)
			}
		}
	}
}

// TestDoWaitsForAllTasks checks the join: results written by every task are
// visible when Do returns.
func TestDoWaitsForAllTasks(t *testing.T) {
	var a, b, c int
	Do(
		func() { a = 1 },
		func() { b = 2 },
		func() { c = 3 },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("results not visible after Do: %d %d %d", a, b, c)
	}
}

// TestWorkersPositive pins the sizing contract.
func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}
