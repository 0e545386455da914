package main

import (
	"math"
	"testing"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/telemetry"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want time.Duration
	}{
		{"empty", nil, 0},
		{"disjoint unordered", []interval{{us(50), us(60)}, {us(0), us(10)}}, us(20)},
		{"overlapping", []interval{{us(0), us(30)}, {us(20), us(50)}}, us(50)},
		{"nested", []interval{{us(0), us(100)}, {us(10), us(20)}}, us(100)},
		{"touching", []interval{{us(0), us(10)}, {us(10), us(20)}}, us(20)},
		{"inverted ignored", []interval{{us(30), us(10)}, {us(0), us(5)}}, us(5)},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("%s: unionLen = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &sessionTrace{spans: []span{
		{name: "root", parent: -1, start: 0, end: us(100)},
		{name: "a", parent: 0, start: us(10), end: us(40)},
		{name: "b", parent: 0, start: us(30), end: us(60)},  // overlaps a
		{name: "c", parent: 0, start: us(80), end: us(120)}, // runs past the root
		{name: "a1", parent: 1, start: us(15), end: us(20)}, // a's child, not the root's
	}}
	for _, tc := range []struct {
		span int
		want time.Duration
	}{
		{0, us(100 - 50 - 20)}, // children cover [10,60] and, clipped, [80,100]
		{1, us(30 - 5)},
		{3, us(40)},
	} {
		if got := tr.selfTime(tc.span); got != tc.want {
			t.Errorf("selfTime(%s) = %v, want %v", tr.spans[tc.span].name, got, tc.want)
		}
	}
}

// A hand-built streamed session: the loudspeaker stage ran inside the
// sensor frame's ApplyStreamFrame call, per core's own trace.
func streamedSession(t *testing.T) *sessionTrace {
	t.Helper()
	tr := &sessionTrace{id: "s-1", epoch: time.Now(), recorder: telemetry.NewFlightRecorder(4)}
	tr.spans = []span{
		{name: "bench:stream", parent: -1, start: 0, end: us(1000)},
		{name: "stream.ReadFrame", parent: 0, start: 0, end: us(100)},
		{name: "protocol.ApplyStreamFrame.sensor", parent: 0, start: us(100), end: us(400)},
		{name: "protocol.StreamDecision", parent: 0, start: us(400), end: us(450)},
	}
	tr.recorder.Record(&telemetry.TraceRecord{TraceID: "s-1", Start: tr.epoch, Spans: []telemetry.SpanRecord{
		{SpanID: "r", Name: "verify", DurUS: 420},
		{SpanID: "st", ParentID: "r", Name: "stage:loudspeaker", StartUS: 150, DurUS: 200},
		{SpanID: "fm", ParentID: "st", Name: "field-measure", StartUS: 160, DurUS: 50},
	}})
	tr.adoptCore()
	return tr
}

func TestAdoptCoreParentsByInterval(t *testing.T) {
	tr := streamedSession(t)
	parents := map[string]string{}
	for _, s := range tr.spans {
		if s.core {
			parents[s.name] = tr.spans[s.parent].name
		}
	}
	want := map[string]string{
		"stage:loudspeaker": "protocol.ApplyStreamFrame.sensor",
		"field-measure":     "stage:loudspeaker",
	}
	if len(parents) != len(want) {
		t.Fatalf("adopted %v, want %v", parents, want)
	}
	for name, p := range want {
		if parents[name] != p {
			t.Errorf("%s adopted under %q, want %q", name, parents[name], p)
		}
	}
}

func TestSessionMetricsMoveStageTimeToEvaluate(t *testing.T) {
	tr := streamedSession(t)
	res := local{
		stages: []core.StageResult{{Stage: core.StageLoudspeaker, Elapsed: us(180)}},
		frames: 3,
	}
	got := sessionMetrics(tr, res)
	want := map[string]float64{
		"layer.decode_ms":                     0.100,
		"layer.assemble_ms":                   0.300 - 0.180,
		"layer.evaluate_ms":                   0.180,
		"layer.reply_ms":                      0.050,
		"core.stage.loudspeaker_ms":           0.180,
		"core.critical_stage_ms":              0.180,
		"protocol.ApplyStreamFrame.sensor_ms": 0.300,
		"stream.frames_read_per_session":      3,
	}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	sum := 0.0
	for _, l := range layers {
		sum += got["layer."+l+"_ms"]
	}
	if math.Abs(sum-0.450) > 1e-9 {
		t.Errorf("layers sum to %v ms, want the 0.450 ms the top-level calls took", sum)
	}
}

func TestTracedRunResidual(t *testing.T) {
	run := &tracedRun{
		values: map[string][]float64{
			"layer.decode_ms": {1, 2, 3}, "layer.assemble_ms": {1}, "layer.evaluate_ms": {2}, "layer.reply_ms": {0.5},
		},
		traced:   []float64{1.1, 2.2},
		untraced: []float64{1, 2},
	}
	// A host at half the reference speed: every layer time doubles.
	m := run.metrics(20, 2)
	if got := m["layer.decode_ms"].Value; math.Abs(got-4) > 1e-9 {
		t.Errorf("decode = %v ms, want the median 2 scaled to 4", got)
	}
	if got := m["server.unattributed_ms"].Value; math.Abs(got-9) > 1e-9 {
		t.Errorf("unattributed = %v ms, want 20 - 2·(2+1+2+0.5) = 9", got)
	}
	if got := m["server.unattributed_share"].Value; math.Abs(got-0.45) > 1e-9 {
		t.Errorf("unattributed share = %v, want 0.45", got)
	}
	if got := m["bench.trace_overhead_share"].Value; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("trace overhead = %v, want 0.1", got)
	}
}
