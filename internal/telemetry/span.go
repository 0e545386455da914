package telemetry

// Hierarchical, evidence-carrying tracing. A Trace is one verification
// attempt; Spans form its tree (request → pipeline stage → sub-operation
// → parallel worker block) and carry typed attributes — the numeric
// evidence behind each stage's verdict (estimated distance vs Dt, SVM
// margin, magnetic swing vs Mt/βt, ASV log-likelihood ratio vs threshold)
// that the flat PR 1 histograms discard. Completed traces land in a
// FlightRecorder ring so a rejected attempt can be replayed span-by-span
// after the fact, the serving-time half of the paper's §VII adaptive
// threshold calibration.
//
// Every Span method is safe on a nil receiver and does nothing, so the
// hot path (DSP → MFCC → GMM) threads spans unconditionally and pays a
// single pointer test per call when tracing is off or the trace was not
// sampled.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// spanFallback numbers span IDs when the system entropy source is
// unavailable (never in practice; keeps NewSpanID total).
var spanFallback atomic.Uint64

// NewSpanID returns a 16-hex-character random span identifier, the
// parent-id field width of a W3C traceparent.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := spanFallback.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// AttrKind discriminates the typed values an attribute can carry.
type AttrKind uint8

// Attribute kinds.
const (
	KindFloat AttrKind = iota + 1
	KindInt
	KindString
	KindBool
)

// String implements fmt.Stringer.
func (k AttrKind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the kind as its string name so JSONL dumps stay
// readable and stable across kind renumbering.
func (k AttrKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name.
func (k *AttrKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("telemetry: attr kind: %w", err)
	}
	switch s {
	case "float":
		*k = KindFloat
	case "int":
		*k = KindInt
	case "string":
		*k = KindString
	case "bool":
		*k = KindBool
	default:
		return fmt.Errorf("telemetry: unknown attr kind %q", s)
	}
	return nil
}

// Attr is one typed span attribute. Exactly one of the value fields is
// meaningful, selected by Kind.
type Attr struct {
	// Key names the attribute (e.g. "distance_cm", "llr").
	Key string `json:"key"`
	// Kind selects the populated value field.
	Kind AttrKind `json:"kind"`
	// Float carries KindFloat values; its physical unit, if any, is in
	// the Unit field. unit: any
	Float float64 `json:"float,omitempty"`
	// Int carries KindInt values.
	Int int64 `json:"int,omitempty"`
	// Str carries KindString values.
	Str string `json:"str,omitempty"`
	// Bool carries KindBool values.
	Bool bool `json:"bool,omitempty"`
	// Unit is the optional physical unit of Float ("cm", "µT", ...).
	Unit string `json:"unit,omitempty"`
}

// Number returns the attribute as a float64 and whether it is numeric
// (KindFloat or KindInt) — the accessor evidence aggregation uses.
func (a Attr) Number() (float64, bool) {
	switch a.Kind {
	case KindFloat:
		return a.Float, true
	case KindInt:
		return float64(a.Int), true
	default:
		return 0, false
	}
}

// String renders the attribute compactly for span-tree displays.
func (a Attr) String() string {
	switch a.Kind {
	case KindFloat:
		return fmt.Sprintf("%s=%.4g%s", a.Key, a.Float, a.Unit)
	case KindInt:
		return fmt.Sprintf("%s=%d%s", a.Key, a.Int, a.Unit)
	case KindString:
		return fmt.Sprintf("%s=%q", a.Key, a.Str)
	case KindBool:
		return fmt.Sprintf("%s=%t", a.Key, a.Bool)
	default:
		return a.Key
	}
}

// Span is one timed operation within a trace. The zero Span is not used;
// spans come from Tracer.StartTrace and Span.StartSpan. All methods are
// nil-receiver-safe no-ops, so untraced call paths carry nil spans for
// free.
type Span struct {
	trace    *Trace
	name     string
	spanID   string
	parentID string
	start    time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's 16-hex identifier.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// TraceID returns the owning trace's identifier.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// StartSpan opens a child span. It returns nil — still safe to use —
// when the receiver is nil or the trace hit its span budget; the trace
// then counts the drop instead of growing without bound.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(name, s.spanID)
}

// End stamps the span's end time. The first End wins; later calls are
// no-ops, so a deferred End after an explicit one is harmless.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetFloat attaches a float attribute; unit names its physical unit ("cm",
// "µT", ...) or "" for dimensionless values.
func (s *Span) SetFloat(key string, value float64, unit string) {
	if s == nil {
		return
	}
	s.append(Attr{Key: key, Kind: KindFloat, Float: value, Unit: unit})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.append(Attr{Key: key, Kind: KindInt, Int: value})
}

// SetString attaches a string attribute.
func (s *Span) SetString(key, value string) {
	if s == nil {
		return
	}
	s.append(Attr{Key: key, Kind: KindString, Str: value})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, value bool) {
	if s == nil {
		return
	}
	s.append(Attr{Key: key, Kind: KindBool, Bool: value})
}

func (s *Span) append(a Attr) {
	s.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// Trace collects the spans of one verification attempt. Spans register in
// start order under a mutex; the per-trace span count is bounded so a
// runaway fan-out cannot balloon memory.
type Trace struct {
	id       string
	maxSpans int
	start    time.Time

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

func (t *Trace) newSpan(name, parentID string) *Span {
	sp := &Span{
		trace:    t,
		name:     name,
		spanID:   NewSpanID(),
		parentID: parentID,
		start:    time.Now(),
	}
	t.mu.Lock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// snapshot freezes the trace into a TraceRecord. Unended spans (a worker
// that never returned) are closed at snapshot time so durations stay
// well-defined.
func (t *Trace) snapshot(v Verdict) *TraceRecord {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	now := time.Now()
	rec := &TraceRecord{
		TraceID:     t.id,
		Start:       t.start,
		Accepted:    v.Accepted,
		FailedStage: v.FailedStage,
		ElapsedUS:   v.Elapsed.Microseconds(),
		Dropped:     dropped,
		Spans:       make([]SpanRecord, 0, len(spans)),
	}
	for _, sp := range spans {
		sp.mu.Lock()
		end := sp.end
		if end.IsZero() {
			end = now
		}
		attrs := make([]Attr, len(sp.attrs))
		copy(attrs, sp.attrs)
		sp.mu.Unlock()
		rec.Spans = append(rec.Spans, SpanRecord{
			SpanID:   sp.spanID,
			ParentID: sp.parentID,
			Name:     sp.name,
			StartUS:  sp.start.Sub(t.start).Microseconds(),
			DurUS:    end.Sub(sp.start).Microseconds(),
			Attrs:    attrs,
		})
	}
	return rec
}

// Verdict is the decision outcome stamped on a finished trace.
type Verdict struct {
	// Accepted is the cascade's final answer.
	Accepted bool
	// FailedStage is the metric name of the first failing stage ("" when
	// accepted).
	FailedStage string
	// Elapsed is the total pipeline latency.
	Elapsed time.Duration
}

// DefMaxSpansPerTrace bounds a trace's span count when TracerConfig does
// not: deep enough for request → 4 stages → sub-ops → one worker block
// per core on large machines, small enough that a trace stays a few KB.
const DefMaxSpansPerTrace = 256

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// MaxSpans bounds the span count of one trace (default
	// DefMaxSpansPerTrace). Spans past the budget are dropped and
	// counted.
	MaxSpans int
	// Sample decides per trace ID whether to record the trace; nil
	// samples everything. Deciding on the ID keeps the choice
	// deterministic across replays of the same request.
	Sample func(traceID string) bool
	// Recorder receives every finished sampled trace; nil discards them
	// (spans still flow to the caller via Finish's return).
	Recorder *FlightRecorder
}

// Tracer mints traces. A nil *Tracer is valid and disables tracing: its
// StartTrace returns a nil root span and every downstream span operation
// no-ops.
type Tracer struct {
	maxSpans int
	sample   func(string) bool
	recorder *FlightRecorder
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefMaxSpansPerTrace
	}
	return &Tracer{maxSpans: cfg.MaxSpans, sample: cfg.Sample, recorder: cfg.Recorder}
}

// Recorder returns the tracer's flight recorder (nil when none).
func (t *Tracer) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.recorder
}

// AttachRecorder installs f as the tracer's flight recorder when it has
// none, so finished traces become queryable after the fact; a recorder
// the tracer was built with is kept. Call before the tracer serves
// traffic — the field is read without synchronization by Finish.
func (t *Tracer) AttachRecorder(f *FlightRecorder) {
	if t == nil || t.recorder != nil {
		return
	}
	t.recorder = f
}

// StartTrace opens a trace under the given request ID and returns its
// root span, or nil when the tracer is nil or the sampler declines.
func (t *Tracer) StartTrace(traceID, rootName string) *Span {
	if t == nil {
		return nil
	}
	if t.sample != nil && !t.sample(traceID) {
		return nil
	}
	now := time.Now()
	tr := &Trace{id: traceID, maxSpans: t.maxSpans, start: now}
	sp := &Span{trace: tr, name: rootName, spanID: NewSpanID(), start: now}
	tr.spans = append(tr.spans, sp)
	return sp
}

// Finish ends the root span, freezes the trace into a TraceRecord,
// stamps the verdict, hands the record to the flight recorder (when
// configured) and returns it. Nil tracer or root → nil.
func (t *Tracer) Finish(root *Span, v Verdict) *TraceRecord {
	if t == nil || root == nil {
		return nil
	}
	root.End()
	rec := root.trace.snapshot(v)
	if t.recorder != nil {
		t.recorder.Record(rec)
	}
	return rec
}

// SampleAll samples every trace — the default policy.
func SampleAll() func(string) bool {
	return func(string) bool { return true }
}

// SampleNone samples nothing; spans become free no-ops everywhere.
func SampleNone() func(string) bool {
	return func(string) bool { return false }
}

// SampleRatio samples approximately the given fraction of traces,
// deterministically per trace ID (the same request is always in or
// always out). Ratios ≤ 0 sample nothing; ≥ 1 everything.
func SampleRatio(ratio float64) func(string) bool {
	if ratio <= 0 {
		return SampleNone()
	}
	if ratio >= 1 {
		return SampleAll()
	}
	threshold := uint64(ratio * (1 << 32))
	return func(id string) bool {
		h := fnv.New64a()
		h.Write([]byte(id))
		return mix64(h.Sum64())&0xffffffff < threshold
	}
}

// mix64 is the splitmix64 finalizer. FNV's raw bits are not uniform over
// the short, near-sequential request IDs clients actually send (the low
// 32 bits of "req-<n>" hashes cluster in one band, which once made a 0.5
// ratio sample nothing); the finalizer spreads them before thresholding.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
