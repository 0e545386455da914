// Command voiceguard-bench measures VoiceGuard as a served system: time
// to decision and capacity over HTTP, the VGSP stream and the voiceprint
// baseline, and a traced in-process waterfall that splits the served
// time across the protocol, stream, trajectory and core layers.
//
// One process builds and enrolls the system the way
// `voiceguard-server -asv` does, serves HTTP and VGSP on loopback, and
// drives them with at most two closed-loop clients. Every reply is
// checked against an in-process reference. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
// Usage, from this directory:
//
//	go run . -seed 1 -out DIR
//	go run . -workload stream-replay -seed 3 -seconds 16 -trace 0
//
// Without -workload every workload runs in a child process of its own
// and DIR receives results.json plus one <workload>.spans.jsonl each
// (`voiceguard-trace show|stats` renders them). With -workload the run
// prints every metric by name and unit, then one JSON result line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"voiceguard/internal/telemetry"
)

// spec names a reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the served system sees.
// BENCHMARK.json lists the same names and units.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ttd_p50_ms", "ms"},
	{"verifies_per_s", "1/s"},
	{"cpu_ms_per_verify", "ms"},
	{"alloc_kb_per_verify", "KiB"},
	{"heap_retained_mb", "MiB"},
}

// perLayer are the traced run's metrics that exist on every workload.
// BENCHMARK.json lists the same names and units; the workload-specific
// layer metrics print alongside them.
var perLayer = []spec{
	{"layer.decode_ms", "ms"},
	{"layer.assemble_ms", "ms"},
	{"layer.evaluate_ms", "ms"},
	{"layer.reply_ms", "ms"},
	{"core.critical_stage_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"server.unattributed_share", "ratio"},
	{"runtime.gc_cycles_per_verify", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.sched_wait_p99_us", "us"},
	{"bench.trace_overhead_share", "ratio"},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string

	// Scale knobs, shrunk by the tests.
	setups   int           // full set-ups per run; setup_s is their median
	warmup   time.Duration // unmeasured load before the phases
	requests [2]int        // tests only: latency/capacity request counts instead of -seconds
	passes   int           // minimum traced passes over the pool
	traceFor time.Duration // minimum traced-run length
}

func defaultConfig() config {
	return config{seed: 1, seconds: 16, trace: 1, setups: 3, warmup: 2 * time.Second, passes: 3, traceFor: 1500 * time.Millisecond}
}

// phases returns the latency and capacity phases, each half of -seconds
// long; the tests leave seconds at 0 and set request counts instead.
func (c config) phases() (latency, capacity phase) {
	half := time.Duration(c.seconds) * time.Second / 2
	return phase{name: "latency", clients: 1, length: half, requests: c.requests[0]},
		phase{name: "capacity", clients: maxClients, length: half, requests: c.requests[1]}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (empty: every workload, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the users, sessions and system provenance")
	flag.IntVar(&cfg.seconds, "seconds", cfg.seconds, "measured seconds, split evenly between the latency and capacity phases")
	flag.IntVar(&cfg.trace, "trace", cfg.trace, "1: add the traced in-process run and end with the per-layer metrics; 0: end with the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for results.json, <workload>.json and <workload>.spans.jsonl")
	flag.Parse()
	err := func() error {
		switch {
		case flag.NArg() > 0:
			return fmt.Errorf("unexpected arguments %q", flag.Args())
		case cfg.seconds < 1:
			return fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
		case cfg.trace != 0 && cfg.trace != 1:
			return fmt.Errorf("-trace must be 0 or 1, got %d", cfg.trace)
		case cfg.workload == "":
			return runAll(cfg)
		default:
			return runOne(context.Background(), cfg, os.Stdout)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "voiceguard-bench:", err)
		os.Exit(1)
	}
}

// report is one workload run's outcome.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Digest covers the pre-encoded requests, the phase configuration
	// and the system provenance: a workload that changes under the same
	// name gets a new digest.
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs a single workload, prints its metrics and result line, and
// writes its report and spans under cfg.out when set.
func runOne(ctx context.Context, cfg config, stdout io.Writer) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	rep, records, err := runWorkload(ctx, cfg, w)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.out != "" {
		if err := writeArtifacts(cfg.out, rep, records); err != nil {
			return err
		}
	}
	if err := printReport(stdout, rep, cfg.trace); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: incorrect run: %v", w.name, rep.Problems)
	}
	return nil
}

// phaseMetrics derives the end-to-end metrics from the latency and
// capacity phases, and the runtime metrics from the capacity phase,
// each over every reply of its phase. Times are scaled to the reference
// host slice by slice; the raw ones print as raw.<name>. A tail
// percentile the phase has too few replies for is left out with a note.
func phaseMetrics(out map[string]metric, lat, capa phaseResult) (notes []string, err error) {
	var raw, scaled []float64
	for _, s := range lat.slices {
		for _, d := range s.ttd {
			raw = append(raw, ms(d))
			scaled = append(scaled, ms(d)*s.speed)
		}
	}
	sort.Float64s(raw)
	sort.Float64s(scaled)
	for _, p := range []struct {
		name     string
		permille int
	}{{"ttd_p50_ms", 500}, {"ttd_p95_ms", 950}, {"ttd_p99_ms", 990}} {
		v, err := percentile(scaled, p.permille)
		switch {
		case err != nil && p.permille == 500:
			return nil, fmt.Errorf("%s: %w", p.name, err)
		case err != nil:
			notes = append(notes, fmt.Sprintf("%s refused: %v", p.name, err))
			continue
		}
		out[p.name] = metric{v, "ms"}
		v, _ = percentile(raw, p.permille) // same count: cannot fail
		out["raw."+p.name] = metric{v, "ms"}
	}
	out["latency_samples"] = metric{float64(lat.done()), "count"}

	var (
		replies          float64
		wall, wallScaled float64 // unit: s
		cpu, cpuScaled   float64 // unit: ms
		allocs, cycles   uint64
		gcCPU, busyCPU   float64 // unit: s
		schedWait        []uint64
		buckets, speeds  []float64
	)
	for _, s := range capa.slices {
		replies += float64(len(s.ttd))
		w, c := s.last.at.Sub(s.first.at).Seconds(), ms(s.last.cpu-s.first.cpu)
		wall, wallScaled = wall+w, wallScaled+w*s.speed
		cpu, cpuScaled = cpu+c, cpuScaled+c*s.speed
		allocs += s.last.allocs - s.first.allocs
		cycles += s.last.gcCycles - s.first.gcCycles
		gcCPU += s.last.gcCPU - s.first.gcCPU
		busyCPU += s.last.busyCPU - s.first.busyCPU
		if schedWait == nil {
			schedWait, buckets = make([]uint64, len(s.last.schedWait.Counts)), s.last.schedWait.Buckets
		}
		for i, n := range s.last.schedWait.Counts {
			schedWait[i] += n - s.first.schedWait.Counts[i]
		}
	}
	if replies == 0 {
		return nil, errors.New("capacity phase completed no request")
	}
	out["verifies_per_s"] = metric{replies / wallScaled, "1/s"}
	out["raw.verifies_per_s"] = metric{replies / wall, "1/s"}
	out["cpu_ms_per_verify"] = metric{cpuScaled / replies, "ms"}
	out["raw.cpu_ms_per_verify"] = metric{cpu / replies, "ms"}
	out["alloc_kb_per_verify"] = metric{float64(allocs) / 1024 / replies, "KiB"}

	out["runtime.gc_cycles_per_verify"] = metric{float64(cycles) / replies, "count"}
	out["runtime.gc_cpu_share"] = metric{gcCPU / busyCPU, "ratio"}
	out["runtime.sched_wait_p99_us"] = metric{histQuantile(schedWait, buckets, 0.99) * 1e6, "us"}

	for _, s := range append(lat.slices, capa.slices...) {
		speeds = append(speeds, s.speed)
	}
	out["host.speed"] = metric{median(speeds), "ratio"}
	return notes, nil
}

// runWorkload sets up, serves the warm-up, latency and capacity phases,
// checks the server's accounting, and with cfg.trace runs the traced
// in-process pass.
func runWorkload(ctx context.Context, cfg config, w *workload) (*report, []*telemetry.TraceRecord, error) {
	var b *bench
	defer func() {
		if b != nil {
			_ = b.close() // error path only: the success path closes and checks
		}
	}()
	if err := checkRuntimeMetrics(); err != nil {
		return nil, nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, nil, err
	}
	defer cal.close()
	var setups, rawSetups []float64
	before := cal.measure(serial)
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			err := b.close()
			b = nil
			if err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if b, err = setUp(ctx, cfg.seed, w); err != nil {
			return nil, nil, err
		}
		took := time.Since(start).Seconds()
		after := cal.measure(serial)
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*speed(before, after))
		before = after
	}
	runtime.GC()

	latency, capacity := cfg.phases()
	warm := phase{name: "warm-up", clients: maxClients, length: cfg.warmup}
	rep := &report{
		Workload: w.name,
		Seed:     cfg.seed,
		Digest:   workloadDigest(b, []phase{warm, latency, capacity}),
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"raw.setup_s": {median(rawSetups), "s"},
		},
	}
	d := b.doerFor()
	results := []phaseResult{
		runPhase(ctx, warm, b.pool, d, nil),
		runPhase(ctx, latency, b.pool, d, cal),
		runPhase(ctx, capacity, b.pool, d, cal),
	}
	rep.Metrics["heap_retained_mb"] = metric{float64(retainedHeap()) / (1 << 20), "MiB"}
	stats := b.srv.Stats()
	served := b
	b = nil
	if err := served.close(); err != nil {
		return nil, nil, fmt.Errorf("shutting down: %w", err)
	}

	for _, r := range results {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if r.firstFailure != nil {
			rep.Problems = append(rep.Problems, "first failure: "+r.firstFailure.Error())
		}
	}
	sent := int64(rep.Attempted)
	if w.transport == overVoiceprint {
		sent = 0 // /voiceprint is not a verification in the server's Stats
	}
	if sum := stats.Accepted + stats.Rejected + stats.Errors + stats.DeadlineExceeded + stats.Shed; stats.Requests != sum || stats.Requests != sent {
		rep.Problems = append(rep.Problems, fmt.Sprintf("server stats %+v: outcomes sum to %d, want Requests == %d sessions sent", stats, sum, sent))
	}
	rep.Metrics["failed_share"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio"}
	if rep.Notes, err = phaseMetrics(rep.Metrics, results[1], results[2]); err != nil {
		return nil, nil, err
	}

	var records []*telemetry.TraceRecord
	if cfg.trace == 1 {
		before := cal.measure(serial)
		run, err := served.traceRun(ctx, cfg.passes, cfg.traceFor)
		after := cal.measure(serial)
		if err != nil {
			rep.Problems = append(rep.Problems, "traced run: "+err.Error())
		} else {
			for name, m := range run.metrics(rep.Metrics["ttd_p50_ms"].Value, speed(before, after)) {
				rep.Metrics[name] = m
			}
			records = run.records
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep, records, nil
}
