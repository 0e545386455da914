package main

// The traced in-process run. Every pooled request goes through the
// server's call sequence twice per pass, once with a span around each
// layer call and once without, in alternating order. The spans give the
// per-layer medians; the untraced twin gives the tracing overhead; and
// ttd_p50_ms minus the sum of the top-level layer medians is reported
// as server.unattributed_ms, the time the served path spends outside
// every traced call (sockets, HTTP framing, handler accounting, logs).

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/telemetry"
)

// span is one timed call, at nanosecond resolution.
type span struct {
	name string
	// parent indexes the session's spans; -1 marks a root.
	parent int
	// start and end are offsets from the session epoch.
	start, end time.Duration
	// core marks a span adopted from core's own trace.
	core bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// sessionTrace records one traced run of one request. Its methods are
// no-ops on a nil receiver, so the same sequence code runs untraced.
type sessionTrace struct {
	id    string
	epoch time.Time
	spans []span
	// tracer is installed as the system's tracer while the session runs;
	// recorder keeps the core traces it finishes.
	tracer   *telemetry.Tracer
	recorder *telemetry.FlightRecorder
}

func newSessionTrace(id string) *sessionTrace {
	rec := telemetry.NewFlightRecorder(4)
	return &sessionTrace{
		id:       id,
		epoch:    time.Now(),
		spans:    make([]span, 0, 256),
		tracer:   telemetry.NewTracer(telemetry.TracerConfig{Recorder: rec}),
		recorder: rec,
	}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *sessionTrace) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *sessionTrace) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
}

// adoptCore merges core's traces of the session into the span list by
// interval. Core's root span duplicates a bench span and is dropped;
// each of its children (the stage spans) becomes a child of the bench
// span it overlaps most, the deepest on a tie; deeper core spans keep
// their core parents. Core records microseconds, so adopted intervals
// are accurate to a microsecond.
func (t *sessionTrace) adoptCore() {
	for _, rec := range t.recorder.Snapshot() {
		base := rec.Start.Sub(t.epoch)
		index := make(map[string]int, len(rec.Spans))
		for _, sp := range rec.Spans {
			if sp.ParentID == "" {
				continue
			}
			s := span{
				name:  sp.Name,
				start: base + time.Duration(sp.StartUS)*time.Microsecond,
				core:  true,
			}
			s.end = s.start + time.Duration(sp.DurUS)*time.Microsecond
			if p, ok := index[sp.ParentID]; ok {
				s.parent = p
			} else {
				s.parent = t.widestOverlap(s)
			}
			index[sp.SpanID] = len(t.spans)
			t.spans = append(t.spans, s)
		}
	}
}

// widestOverlap returns the bench span overlapping s the most, the
// later (deeper) one on a tie, or -1.
func (t *sessionTrace) widestOverlap(s span) int {
	best, bestOverlap := -1, time.Duration(-1)
	for i, c := range t.spans {
		if c.core {
			continue
		}
		if o := min(c.end, s.end) - max(c.start, s.start); o >= 0 && o >= bestOverlap {
			best, bestOverlap = i, o
		}
	}
	return best
}

// interval is a half-open time range.
type interval struct{ start, end time.Duration }

// unionLen is the total length covered by the intervals.
func unionLen(ivs []interval) time.Duration {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range sorted {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= cur.end {
			cur.end = max(cur.end, iv.end)
			continue
		}
		if open {
			total += cur.end - cur.start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is span i's duration minus the part of its interval its
// children cover.
func (t *sessionTrace) selfTime(i int) time.Duration {
	p := t.spans[i]
	var kids []interval
	for _, c := range t.spans {
		if c.parent == i {
			kids = append(kids, interval{max(c.start, p.start), min(c.end, p.end)})
		}
	}
	return p.dur() - unionLen(kids)
}

// topLevel returns the root child that span i descends from, or -1.
func (t *sessionTrace) topLevel(i int) int {
	for i >= 0 && t.spans[i].parent >= 0 {
		if t.spans[t.spans[i].parent].parent < 0 {
			return i
		}
		i = t.spans[i].parent
	}
	return -1
}

// layerOf assigns a top-level call of the server sequence to its
// waterfall layer: decoding the wire bytes, assembling the evaluator's
// input, evaluating the cascade, encoding the reply.
func layerOf(call string) string {
	switch {
	case call == "protocol.DecodeRequest", call == "protocol.DecodeVoiceprint",
		call == "stream.ReadFrame", call == "stream.SessionDigest.Add":
		return "decode"
	case call == "protocol.ToSession", call == "protocol.VoiceFromRequest",
		call == "core.NewStreamVerifier", strings.HasPrefix(call, "protocol.ApplyStreamFrame."):
		return "assemble"
	case call == "protocol.EncodeResponse", call == "protocol.StreamDecision":
		return "reply"
	default:
		return "evaluate"
	}
}

// layers are the waterfall layers in reporting order.
var layers = []string{"decode", "assemble", "evaluate", "reply"}

// stageMetric names a stage in metric names.
func stageMetric(st core.Stage) string {
	if st == core.StageSpeakerID {
		return "speakerid"
	}
	return st.MetricName()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sessionMetrics derives one traced session's per-layer values (ms,
// except counts). A top-level call's time goes to its layer, except the
// stage time that ran inside it, which goes to evaluate; stage times
// are the stages' own nanosecond timings, placed by their core spans.
func sessionMetrics(t *sessionTrace, res local) map[string]float64 {
	out := make(map[string]float64)
	stageSpan := make(map[string]int)
	for i, s := range t.spans {
		if !s.core {
			continue
		}
		switch {
		case strings.HasPrefix(s.name, telemetry.StageSpanName):
			stageSpan[strings.TrimPrefix(s.name, telemetry.StageSpanName)] = i
		case s.name == "mfcc-extract":
			out["features.Extract_ms"] += ms(s.dur())
		case s.name == "gmm-score":
			out["gmm.Score_ms"] += ms(s.dur())
		}
	}
	inside := make(map[int]time.Duration)
	var critical time.Duration
	for _, st := range res.stages {
		out["core.stage."+stageMetric(st.Stage)+"_ms"] = ms(st.Elapsed)
		critical = max(critical, st.Elapsed)
		if i, ok := stageSpan[st.Stage.MetricName()]; ok {
			inside[t.topLevel(i)] += st.Elapsed
		}
	}
	out["core.critical_stage_ms"] = ms(critical)
	for _, l := range layers {
		out["layer."+l+"_ms"] = 0
	}
	for i, s := range t.spans {
		switch {
		case s.core:
			// Counted above, through the stage results.
		case s.parent < 0 && i > 0:
			// A root after the first is a call replayed outside the
			// server sequence to split a layer.
			out[s.name+"_ms"] += ms(s.dur())
		case s.parent == 0:
			out[s.name+"_ms"] += ms(s.dur())
			out["layer."+layerOf(s.name)+"_ms"] += ms(s.dur() - inside[i])
			out["layer.evaluate_ms"] += ms(inside[i])
			if s.name == "core.VerifyContext" {
				out["core.fanout_overhead_ms"] = ms(t.selfTime(i))
			}
		}
	}
	if v, ok := out["trajectory.FromUpload_ms"]; ok {
		if _, http := out["protocol.ToSession_ms"]; http {
			out["protocol.ToSession_ms"] -= v
		}
	}
	if strings.HasPrefix(t.spans[0].name, "bench:stream") {
		out["stream.frames_read_per_session"] = float64(res.frames)
	}
	return out
}

// record renders the session's bench spans as a trace record in the
// flight recorder's JSONL format; core's records share its trace ID.
func (t *sessionTrace) record(res local) *telemetry.TraceRecord {
	rec := &telemetry.TraceRecord{
		TraceID:     t.id,
		Start:       t.epoch,
		Accepted:    res.verdict.Accepted,
		FailedStage: res.failed,
		ElapsedUS:   t.spans[0].dur().Microseconds(),
	}
	ids := make([]string, len(t.spans))
	for i, s := range t.spans {
		if s.core {
			continue
		}
		ids[i] = telemetry.NewSpanID()
		sr := telemetry.SpanRecord{
			SpanID: ids[i], Name: s.name, StartUS: s.start.Microseconds(), DurUS: s.dur().Microseconds(),
		}
		if s.parent >= 0 {
			sr.ParentID = ids[s.parent]
		}
		rec.Spans = append(rec.Spans, sr)
	}
	return rec
}

// tracedRun is the per-layer result of the traced in-process run.
type tracedRun struct {
	// values are per-session metric values by name.
	values map[string][]float64
	// traced and untraced are the sequence's wall time per session with
	// and without spans, ms.
	traced, untraced []float64
	sessions, early  int
	frames, total    int
	records          []*telemetry.TraceRecord
}

// maxTracedPasses bounds the traced run on very fast workloads.
const maxTracedPasses = 200

// traceRun runs the pool through the in-process sequence at least
// minPasses times and for at least minLength, each request traced and
// untraced in alternating order, and checks every reply against its
// reference. Call it only once the server is shut down: it swaps the
// system's tracer.
func (b *bench) traceRun(ctx context.Context, minPasses int, minLength time.Duration) (*tracedRun, error) {
	defer func() { b.sys.Tracer = nil }()
	run := &tracedRun{values: make(map[string][]float64)}
	start := time.Now()
	for pass := 0; pass < maxTracedPasses && (pass < minPasses || time.Since(start) < minLength); pass++ {
		for _, it := range b.pool {
			for k := 0; k < 2; k++ {
				var err error
				if (pass+k)%2 == 0 {
					err = b.untracedSession(ctx, it, run)
				} else {
					err = b.tracedSession(ctx, it, run)
				}
				if err != nil {
					return nil, fmt.Errorf("%s: %w", it.id, err)
				}
			}
		}
	}
	return run, nil
}

func (b *bench) untracedSession(ctx context.Context, it *item, run *tracedRun) error {
	b.sys.Tracer = nil
	start := time.Now()
	res, err := b.serveInProcess(ctx, it, nil)
	run.untraced = append(run.untraced, ms(time.Since(start)))
	if err != nil {
		return err
	}
	return it.want.diff(res.verdict)
}

func (b *bench) tracedSession(ctx context.Context, it *item, run *tracedRun) error {
	var in uploadInputs
	if it.req != nil {
		var err error
		if in, err = newUploadInputs(it.req); err != nil {
			return err
		}
	}
	t := newSessionTrace(it.id)
	b.sys.Tracer = t.tracer
	res, err := b.serveInProcess(ctx, it, t)
	b.sys.Tracer = nil
	if err != nil {
		return err
	}
	if err := it.want.diff(res.verdict); err != nil {
		return err
	}
	run.traced = append(run.traced, ms(t.spans[0].dur()))
	// The server rebuilds the gesture inside ToSession (HTTP) or inside
	// the frame that completes the distance stage's inputs (VGSP); the
	// same call on the same inputs, replayed, splits it out.
	if it.req != nil && !res.verdict.Early {
		s := t.begin("trajectory.FromUpload", -1)
		err := in.fromUpload()
		t.end(s)
		if err != nil {
			return err
		}
	}
	t.adoptCore()
	for name, v := range sessionMetrics(t, res) {
		run.values[name] = append(run.values[name], v)
	}
	run.sessions++
	if res.verdict.Early {
		run.early++
	}
	if b.w.transport == overStream {
		run.frames += res.frames
		run.total += len(it.frames)
	}
	run.records = append(run.records, t.record(res))
	run.records = append(run.records, t.recorder.Snapshot()...)
	return nil
}

// metrics summarizes the run: per-session medians with times multiplied
// by scale, the stream counts, the tracing overhead, and the waterfall
// residual against the served ttdP50 (ms, already scaled).
func (run *tracedRun) metrics(ttdP50, scale float64) map[string]metric {
	out := make(map[string]metric)
	for name, vs := range run.values {
		unit, f := "ms", scale
		if strings.HasSuffix(name, "_per_session") {
			unit, f = "count", 1
		}
		out[name] = metric{median(vs) * f, unit}
	}
	if run.total > 0 {
		out["stream.frames_saved_share"] = metric{1 - float64(run.frames)/float64(run.total), "ratio"}
		out["stream.early_exit_share"] = metric{float64(run.early) / float64(run.sessions), "ratio"}
	}
	out["bench.trace_overhead_share"] = metric{median(run.traced)/median(run.untraced) - 1, "ratio"}
	attributed := 0.0
	for _, l := range layers {
		attributed += out["layer."+l+"_ms"].Value
	}
	out["server.unattributed_ms"] = metric{ttdP50 - attributed, "ms"}
	out["server.unattributed_share"] = metric{(ttdP50 - attributed) / ttdP50, "ratio"}
	return out
}
