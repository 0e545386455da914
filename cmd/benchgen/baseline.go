package main

// -bench-baseline mode: after writing fresh -bench-json rows, compare
// them against a committed baseline file and fail on hot-path
// regressions. Allocation counts on the micro rows are deterministic
// (averaged over many iterations with no concurrency), so they gate
// strictly; wall times gate loosely, since CI machines vary.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// nsSlack is the multiplicative headroom on ns/op before a row counts
// as regressed. Wide on purpose: the gate exists to catch order-of-
// magnitude slowdowns (a dropped fast path, an accidental O(n²)), not
// scheduler jitter between CI hosts.
const nsSlack = 2.5

// allocSlack is the fractional headroom on allocs/op for rows that are
// not deterministic micro benchmarks (experiment rows allocate through
// goroutines and one-shot setup, so exact counts wobble).
const allocSlack = 0.10

// nsExempt lists rows whose ns/op is not compared against the baseline
// because the row's workload changed shape between PRs; the allocation
// gate still applies, since the scored code path itself is unchanged.
// PR 8 moved the micro/gmm rows from well-separated synthetic blobs to
// the production-shaped MFCC mixture (the blobs let the exact path's
// exp underflow early-out, understating its real cost), so the
// BENCH_pr6.json wall time for this row no longer describes the same
// work; BENCH_pr8.json is its ns reference going forward.
var nsExempt = map[string]bool{
	"micro/gmm.MeanLogLikelihood": true,
}

// compareBaseline gates fresh rows against a baseline file. Rows absent
// from the baseline pass (new benchmarks are not regressions); rows
// absent from the fresh run are reported, so a renamed benchmark cannot
// silently drop out of the gate.
func compareBaseline(fresh []benchRow, basePath string) error {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base []benchRow
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("decoding baseline %s: %w", basePath, err)
	}
	byName := map[string]benchRow{}
	for _, r := range fresh {
		byName[r.Name] = r
	}
	var problems []string
	for _, b := range base {
		f, ok := byName[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: in baseline but missing from this run", b.Name))
			continue
		}
		allowedAllocs := b.AllocsPerOp
		if !strings.HasPrefix(b.Name, "micro/") {
			allowedAllocs += uint64(float64(b.AllocsPerOp)*allocSlack) + 8
		}
		if f.AllocsPerOp > allowedAllocs {
			problems = append(problems, fmt.Sprintf("%s: allocs/op %d exceeds baseline %d (allowed %d)",
				b.Name, f.AllocsPerOp, b.AllocsPerOp, allowedAllocs))
		}
		if b.NsPerOp > 0 && !nsExempt[b.Name] && f.NsPerOp > b.NsPerOp*nsSlack {
			problems = append(problems, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op ×%.1f",
				b.Name, f.NsPerOp, b.NsPerOp, nsSlack))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("benchmark regressions vs %s:\n  %s", basePath, strings.Join(problems, "\n  "))
	}
	fmt.Printf("baseline check passed against %s (%d rows compared)\n", basePath, len(base))
	return nil
}
