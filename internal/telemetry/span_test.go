package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeParentLinksAndAttrs(t *testing.T) {
	rec := NewFlightRecorder(4)
	tr := NewTracer(TracerConfig{Recorder: rec})
	root := tr.StartTrace("req-1", "verify")
	if root == nil {
		t.Fatal("StartTrace returned nil with no sampler")
	}
	stage := root.StartSpan("stage:distance")
	stage.SetFloat("distance_cm", 4.2, "cm")
	stage.SetInt("frames", 128)
	stage.SetString("detail", "ok")
	stage.SetBool("pass", true)
	sub := stage.StartSpan("trajectory-estimate")
	sub.End()
	stage.End()
	out := tr.Finish(root, Verdict{Accepted: false, FailedStage: "distance", Elapsed: 3 * time.Millisecond})
	if out == nil {
		t.Fatal("Finish returned nil")
	}
	if out.TraceID != "req-1" || out.Accepted || out.FailedStage != "distance" {
		t.Fatalf("verdict not stamped: %+v", out)
	}
	if out.ElapsedUS != 3000 {
		t.Fatalf("ElapsedUS = %d, want 3000", out.ElapsedUS)
	}
	if len(out.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(out.Spans))
	}
	if out.Spans[0].Name != "verify" || out.Spans[0].ParentID != "" {
		t.Fatalf("root span wrong: %+v", out.Spans[0])
	}
	if out.Spans[1].ParentID != out.Spans[0].SpanID {
		t.Fatalf("stage span parent = %q, want root %q", out.Spans[1].ParentID, out.Spans[0].SpanID)
	}
	if out.Spans[2].ParentID != out.Spans[1].SpanID {
		t.Fatalf("sub span parent = %q, want stage %q", out.Spans[2].ParentID, out.Spans[1].SpanID)
	}
	if len(out.Spans[1].Attrs) != 4 {
		t.Fatalf("stage attrs = %v, want 4", out.Spans[1].Attrs)
	}
	if a, ok := out.Spans[1].Attr("distance_cm"); !ok || a.Float != 4.2 || a.Unit != "cm" {
		t.Fatalf("distance_cm attr = %+v, %v", a, ok)
	}
	if got := rec.Find("req-1"); got != out {
		t.Fatalf("recorder did not retain the finished trace")
	}
}

func TestNilSpanAndTracerAreNoOps(t *testing.T) {
	var tr *Tracer
	root := tr.StartTrace("id", "verify")
	if root != nil {
		t.Fatal("nil tracer minted a span")
	}
	if tr.Recorder() != nil {
		t.Fatal("nil tracer returned a recorder")
	}
	if rec := tr.Finish(root, Verdict{}); rec != nil {
		t.Fatal("nil tracer finished a trace")
	}
	// Every method on a nil span must be callable.
	child := root.StartSpan("child")
	if child != nil {
		t.Fatal("nil span minted a child")
	}
	child.SetFloat("x", 1, "")
	child.SetInt("y", 2)
	child.SetString("z", "s")
	child.SetBool("w", true)
	child.End()
	if child.Name() != "" || child.ID() != "" || child.TraceID() != "" {
		t.Fatal("nil span leaked identity")
	}
}

func TestSpanBudgetDropsAndCounts(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpans: 3})
	root := tr.StartTrace("req", "verify")
	a := root.StartSpan("a")
	b := root.StartSpan("b")
	if a == nil || b == nil {
		t.Fatal("spans within budget were dropped")
	}
	c := root.StartSpan("c")
	if c != nil {
		t.Fatal("span past the budget was kept")
	}
	// Dropped spans still take attribute calls safely.
	c.SetInt("k", 1)
	rec := tr.Finish(root, Verdict{Accepted: true})
	if len(rec.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rec.Spans))
	}
	if rec.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", rec.Dropped)
	}
}

func TestUnendedSpanClosedAtSnapshot(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("req", "verify")
	hung := root.StartSpan("worker")
	_ = hung // never ended //lint:allow spanclose exercising snapshot-time closing
	rec := tr.Finish(root, Verdict{Accepted: true})
	for _, sp := range rec.Spans {
		if sp.DurUS < 0 {
			t.Fatalf("span %s has negative duration %d", sp.Name, sp.DurUS)
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("req", "verify")
	sp := root.StartSpan("op")
	sp.End()
	time.Sleep(2 * time.Millisecond)
	sp.End() // must not restamp
	rec := tr.Finish(root, Verdict{})
	if rec.Spans[1].DurUS >= 2000 {
		t.Fatalf("second End restamped the span: %dµs", rec.Spans[1].DurUS)
	}
}

func TestSamplers(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: SampleNone()})
	if root := tr.StartTrace("req", "verify"); root != nil {
		t.Fatal("SampleNone still traced")
	}
	tr = NewTracer(TracerConfig{Sample: SampleAll()})
	if root := tr.StartTrace("req", "verify"); root == nil {
		t.Fatal("SampleAll dropped a trace")
	}
	half := SampleRatio(0.5)
	in := 0
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("req-%d", i)
		first := half(id)
		if first != half(id) {
			t.Fatalf("SampleRatio not deterministic for %s", id)
		}
		if first {
			in++
		}
	}
	if in < 350 || in > 650 {
		t.Fatalf("SampleRatio(0.5) sampled %d/1000", in)
	}
	if SampleRatio(0)("x") || SampleRatio(-1)("x") {
		t.Fatal("non-positive ratio sampled")
	}
	if !SampleRatio(1)("x") || !SampleRatio(2)("x") {
		t.Fatal("ratio ≥ 1 dropped")
	}
}

// TestFlightRecorderEviction pins the ring's retention contract: writing
// 2N traces into a size-N ring keeps exactly the newest N, and Snapshot
// returns them oldest-first.
func TestFlightRecorderEviction(t *testing.T) {
	const n = 4
	rec := NewFlightRecorder(n)
	if rec.Cap() != n {
		t.Fatalf("Cap = %d, want %d", rec.Cap(), n)
	}
	for i := 0; i < 2*n; i++ {
		rec.Record(&TraceRecord{TraceID: fmt.Sprintf("t%d", i)})
	}
	snap := rec.Snapshot()
	if len(snap) != n {
		t.Fatalf("snapshot kept %d traces, want %d", len(snap), n)
	}
	for i, r := range snap {
		want := fmt.Sprintf("t%d", n+i) // t4 t5 t6 t7, oldest first
		if r.TraceID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (got %v)", i, r.TraceID, want, ids(snap))
		}
		if i > 0 && snap[i-1].Seq >= r.Seq {
			t.Fatalf("snapshot not in ascending Seq order: %v", ids(snap))
		}
	}
	if got := rec.Find("t0"); got != nil {
		t.Fatal("evicted trace still findable")
	}
	if got := rec.Find(fmt.Sprintf("t%d", 2*n-1)); got == nil {
		t.Fatal("newest trace not findable")
	}
}

func ids(rs []*TraceRecord) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.TraceID
	}
	return out
}

func TestFlightRecorderFindPrefersNewest(t *testing.T) {
	rec := NewFlightRecorder(8)
	rec.Record(&TraceRecord{TraceID: "dup", ElapsedUS: 1})
	rec.Record(&TraceRecord{TraceID: "dup", ElapsedUS: 2})
	if got := rec.Find("dup"); got == nil || got.ElapsedUS != 2 {
		t.Fatalf("Find returned %+v, want the newest duplicate", got)
	}
}

func TestNilFlightRecorderIsSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.Record(&TraceRecord{TraceID: "x"})
	if rec.Cap() != 0 || rec.Snapshot() != nil {
		t.Fatal("nil recorder not inert")
	}
}

// TestFlightRecorderConcurrentRecordSnapshot drives writers and readers
// through the ring together; run under -race this checks the lock-free
// slot protocol, and the invariants below check snapshot consistency.
func TestFlightRecorderConcurrentRecordSnapshot(t *testing.T) {
	const (
		writers = 8
		each    = 200
	)
	rec := NewFlightRecorder(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := rec.Snapshot()
				if len(snap) > rec.Cap() {
					t.Errorf("snapshot larger than ring: %d > %d", len(snap), rec.Cap())
					return
				}
				for i := 1; i < len(snap); i++ {
					if snap[i-1].Seq >= snap[i].Seq {
						t.Errorf("snapshot out of Seq order at %d", i)
						return
					}
				}
				rec.Find("w0-199")
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < each; i++ {
				rec.Record(&TraceRecord{TraceID: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := rec.seq.Load(); got != writers*each {
		t.Fatalf("sequence counter = %d, want %d", got, writers*each)
	}
	final := rec.Snapshot()
	if len(final) != rec.Cap() {
		t.Fatalf("ring not full after %d records", writers*each)
	}
	// Retain-newest under wrap races: once every writer has returned, a
	// slot must hold the highest-Seq record that targeted it, so nothing
	// older than the last Cap() sequence numbers may survive.
	for _, r := range final {
		if r.Seq < uint64(writers*each-rec.Cap()) {
			t.Errorf("stale record seq %d survived; retain-newest requires ≥ %d",
				r.Seq, writers*each-rec.Cap())
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := NewFlightRecorder(4)
	tr := NewTracer(TracerConfig{Recorder: rec})
	for i := 0; i < 3; i++ {
		root := tr.StartTrace(fmt.Sprintf("req-%d", i), "verify")
		sp := root.StartSpan("stage:distance")
		sp.SetFloat("distance_cm", float64(i), "cm")
		sp.SetBool("pass", i == 0)
		sp.End()
		tr.Finish(root, Verdict{Accepted: i == 0, FailedStage: map[bool]string{true: "", false: "distance"}[i == 0]})
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	orig := rec.Snapshot()
	if len(back) != len(orig) {
		t.Fatalf("round trip kept %d records, want %d", len(back), len(orig))
	}
	for i := range back {
		a, b := orig[i], back[i]
		if a.TraceID != b.TraceID || a.Seq != b.Seq || a.Accepted != b.Accepted ||
			a.FailedStage != b.FailedStage || a.ElapsedUS != b.ElapsedUS || len(a.Spans) != len(b.Spans) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, b, a)
		}
		for j := range a.Spans {
			sa, sb := a.Spans[j], b.Spans[j]
			if sa.SpanID != sb.SpanID || sa.ParentID != sb.ParentID || sa.Name != sb.Name ||
				sa.StartUS != sb.StartUS || sa.DurUS != sb.DurUS || len(sa.Attrs) != len(sb.Attrs) {
				t.Fatalf("record %d span %d mismatch: %+v vs %+v", i, j, sb, sa)
			}
			for k := range sa.Attrs {
				if sa.Attrs[k] != sb.Attrs[k] {
					t.Fatalf("record %d span %d attr %d: %+v vs %+v", i, j, k, sb.Attrs[k], sa.Attrs[k])
				}
			}
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"trace_id\":\"ok\"}\nnot json\n")); err == nil {
		t.Fatal("ReadJSONL accepted garbage")
	}
	recs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: recs=%v err=%v", recs, err)
	}
}

func TestSummaryCarriesFailingStageEvidence(t *testing.T) {
	rec := &TraceRecord{
		TraceID:     "r",
		Accepted:    false,
		FailedStage: "loudspeaker",
		Spans: []SpanRecord{
			{SpanID: "1", Name: "verify"},
			{SpanID: "2", ParentID: "1", Name: "stage:loudspeaker", Attrs: []Attr{
				{Key: "field_ut", Kind: KindFloat, Float: 601.3, Unit: "µT"},
				{Key: "threshold_mt_ut", Kind: KindFloat, Float: 28, Unit: "µT"},
				{Key: "detail", Kind: KindString, Str: "swing"},
			}},
		},
	}
	s := rec.Summary()
	if s.FailedStage != "loudspeaker" || s.Spans != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Evidence["field_ut"] != 601.3 || s.Evidence["threshold_mt_ut"] != 28 {
		t.Fatalf("evidence = %v", s.Evidence)
	}
	if _, ok := s.Evidence["detail"]; ok {
		t.Fatal("non-numeric attr leaked into evidence")
	}
	ok := &TraceRecord{TraceID: "a", Accepted: true, Spans: rec.Spans}
	if ev := ok.Summary().Evidence; ev != nil {
		t.Fatalf("accepted summary carries evidence: %v", ev)
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := newHistogram([]float64{0.1, 1})
	h.ObserveExemplar(0.05, "trace-a")
	h.ObserveExemplar(0.5, "trace-b")
	h.ObserveExemplar(5, "trace-c")
	h.ObserveExemplar(0.06, "") // no trace: must not clobber the exemplar
	if ex := h.BucketExemplar(0); ex == nil || ex.TraceID != "trace-a" || ex.Value != 0.05 {
		t.Fatalf("bucket 0 exemplar = %+v", ex)
	}
	if ex := h.BucketExemplar(1); ex == nil || ex.TraceID != "trace-b" {
		t.Fatalf("bucket 1 exemplar = %+v", ex)
	}
	if ex := h.BucketExemplar(2); ex == nil || ex.TraceID != "trace-c" {
		t.Fatalf("+Inf bucket exemplar = %+v", ex)
	}
	if ex := h.BucketExemplar(99); ex != nil {
		t.Fatal("out-of-range bucket returned an exemplar")
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	h.ObserveExemplar(0.01, "trace-d")
	if ex := h.BucketExemplar(0); ex.TraceID != "trace-d" {
		t.Fatalf("newer exemplar did not replace: %+v", ex)
	}
}
