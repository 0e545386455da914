package telemetry

// Time-aware observability: fixed-memory rings of rolling windows that
// turn the per-decision counters and evidence values into distributions
// over time. Two rings run in parallel — a fine ring (default 60 × 1 min)
// answering "what changed in the last minutes" and a coarse ring (default
// 24 × 1 h) answering "how does today compare to this morning". Every
// observation lands in both rings with a handful of atomic adds: the
// serving path allocates nothing and takes no locks.
//
// On top of the rings sit the fleet-level signals the thresholds-fit-
// offline cascade cannot see per decision: streaming drift scores (PSI
// and a binned two-sample KS statistic) between the live window and a
// pinned baseline distribution, multi-window SLO burn rates, and sampled
// process resource timelines.

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// VerifyOutcome classifies one verification attempt for window
// accounting. The order mirrors the server's outcome counters.
type VerifyOutcome int

// Verification outcomes.
const (
	OutcomeAccepted VerifyOutcome = iota
	OutcomeRejected
	OutcomeError
	OutcomeDeadlineExceeded
	OutcomeShed
	numOutcomes
)

// String implements fmt.Stringer.
func (o VerifyOutcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRejected:
		return "rejected"
	case OutcomeError:
		return "error"
	case OutcomeDeadlineExceeded:
		return "deadline_exceeded"
	case OutcomeShed:
		return "shed"
	default:
		return "unknown"
	}
}

// SeriesID indexes one registered evidence series of a WindowSet.
type SeriesID int

// SeriesDef declares one per-stage evidence distribution captured by the
// rolling windows: the stage's metric name, the evidence metric, and the
// fixed bin edges its histogram uses. Edges are strictly increasing upper
// bounds; values above the last edge land in an implicit overflow bin, so
// a series with E edges has E+1 bins. Fixed deterministic edges are what
// make PSI/KS between two windows well-defined.
type SeriesDef struct {
	// Stage is the pipeline stage's metric name ("distance", ...).
	Stage string
	// Metric names the evidence quantity ("distance_cm", "llr", ...).
	Metric string
	// Edges are the strictly increasing histogram upper bounds.
	Edges []float64
}

// WindowConfig sizes a WindowSet. The zero value selects the defaults.
type WindowConfig struct {
	// FineSlots × FineWidth is the fine ring (default 60 × 1 min).
	FineSlots int
	FineWidth time.Duration
	// CoarseSlots × CoarseWidth is the coarse ring (default 24 × 1 h).
	CoarseSlots int
	CoarseWidth time.Duration
	// LiveWindow is the lookback drift scores compare against the pinned
	// baseline (default 5 min).
	LiveWindow time.Duration
	// LatencyGoodUnder is the latency-SLO threshold: a decided verify at
	// or under it counts as "good". 0 counts every decided verify good.
	LatencyGoodUnder time.Duration
	// Now is the clock (default time.Now). Injectable so rotation and
	// drift are deterministic under test and in replay experiments.
	Now func() time.Time
}

// Default window geometry.
const (
	DefFineSlots   = 60
	DefFineWidth   = time.Minute
	DefCoarseSlots = 24
	DefCoarseWidth = time.Hour
	DefLiveWindow  = 5 * time.Minute
)

func (c *WindowConfig) setDefaults() {
	if c.FineSlots <= 0 {
		c.FineSlots = DefFineSlots
	}
	if c.FineWidth <= 0 {
		c.FineWidth = DefFineWidth
	}
	if c.CoarseSlots <= 0 {
		c.CoarseSlots = DefCoarseSlots
	}
	if c.CoarseWidth <= 0 {
		c.CoarseWidth = DefCoarseWidth
	}
	if c.LiveWindow <= 0 {
		c.LiveWindow = DefLiveWindow
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// windowSlot is one rotation period's counts. All fields are atomics so
// concurrent writers never block; a slot is recycled in place when its
// epoch passes (fixed memory, no allocation at rotation).
type windowSlot struct {
	// epoch is the slot's period number (unixNano / width); -1 while a
	// writer is recycling the slot for a new period.
	epoch atomic.Int64

	// counts is the flattened evidence histogram (see WindowSet.offsets);
	// sums holds one float64-bit sum per series for window means.
	counts []atomic.Int64
	sums   []atomic.Uint64

	outcomes [numOutcomes]atomic.Int64
	latOK    atomic.Int64
	latTotal atomic.Int64
	latSumUS atomic.Int64

	// Sampled process state (last write in the period wins). allocTotal
	// and gcPauseTotalUS are cumulative process counters at sample time,
	// so deltas between slots give per-window rates.
	sampleUnix     atomic.Int64
	heapBytes      atomic.Int64
	goroutines     atomic.Int64
	gcPauseTotalUS atomic.Int64
	allocTotal     atomic.Int64
}

func (s *windowSlot) reset() {
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	for i := range s.sums {
		s.sums[i].Store(0)
	}
	for i := range s.outcomes {
		s.outcomes[i].Store(0)
	}
	s.latOK.Store(0)
	s.latTotal.Store(0)
	s.latSumUS.Store(0)
	s.sampleUnix.Store(0)
	s.heapBytes.Store(0)
	s.goroutines.Store(0)
	s.gcPauseTotalUS.Store(0)
	s.allocTotal.Store(0)
}

// windowRing is a fixed ring of slots keyed by epoch (time / width).
type windowRing struct {
	width int64 // slot width in nanoseconds
	slots []windowSlot
}

func newWindowRing(n int, width time.Duration, bins, series int) *windowRing {
	r := &windowRing{width: int64(width), slots: make([]windowSlot, n)}
	for i := range r.slots {
		r.slots[i].counts = make([]atomic.Int64, bins)
		r.slots[i].sums = make([]atomic.Uint64, series)
	}
	return r
}

// slot returns the slot for nowNS, recycling it in place when its stored
// epoch is stale. Writers that lose the recycle race spin until the
// winner finishes zeroing — the window is a few atomic stores wide.
func (r *windowRing) slot(nowNS int64) *windowSlot {
	e := nowNS / r.width
	s := &r.slots[int(e%int64(len(r.slots)))]
	for {
		cur := s.epoch.Load()
		switch {
		case cur == e:
			return s
		case cur == -1 || cur > e:
			// Another writer is recycling (or a newer period already owns
			// the slot — a straggler with a stale clock drops its sample).
			if cur > e {
				return nil
			}
		default:
			if s.epoch.CompareAndSwap(cur, -1) {
				s.reset()
				s.epoch.Store(e)
				return s
			}
		}
	}
}

// visit calls fn for every slot whose period overlaps [nowNS-lookback,
// nowNS], oldest first.
func (r *windowRing) visit(nowNS, lookbackNS int64, fn func(*windowSlot)) {
	cur := nowNS / r.width
	first := (nowNS - lookbackNS) / r.width
	if span := int64(len(r.slots)) - 1; cur-first > span {
		first = cur - span
	}
	for e := first; e <= cur; e++ {
		s := &r.slots[int(e%int64(len(r.slots)))]
		if s.epoch.Load() == e {
			fn(s)
		}
	}
}

// WindowSet is the time-aware aggregation layer: a fine and a coarse
// ring of rolling windows over the registered evidence series, verdict
// and latency counts, and sampled process state. All Observe methods are
// safe for concurrent use and allocation-free.
type WindowSet struct {
	cfg     WindowConfig
	defs    []SeriesDef
	offsets []int // series i's bins start at offsets[i]
	bins    int
	fine    *windowRing
	coarse  *windowRing

	baseline atomic.Pointer[Baseline]
}

// NewWindowSet builds a window set over the given evidence series. The
// series list is fixed for the set's lifetime so every slot can
// preallocate its counts.
func NewWindowSet(cfg WindowConfig, defs []SeriesDef) *WindowSet {
	cfg.setDefaults()
	w := &WindowSet{cfg: cfg, defs: defs, offsets: make([]int, len(defs))}
	for i, d := range defs {
		w.offsets[i] = w.bins
		w.bins += len(d.Edges) + 1
	}
	w.fine = newWindowRing(cfg.FineSlots, cfg.FineWidth, w.bins, len(defs))
	w.coarse = newWindowRing(cfg.CoarseSlots, cfg.CoarseWidth, w.bins, len(defs))
	return w
}

// Defs returns the registered series definitions (shared slice; treat as
// read-only).
func (w *WindowSet) Defs() []SeriesDef { return w.defs }

// SeriesByName returns the series ID for a stage/metric pair.
func (w *WindowSet) SeriesByName(stage, metric string) (SeriesID, bool) {
	for i, d := range w.defs {
		if d.Stage == stage && d.Metric == metric {
			return SeriesID(i), true
		}
	}
	return 0, false
}

// LiveWindow returns the drift comparison lookback.
func (w *WindowSet) LiveWindow() time.Duration { return w.cfg.LiveWindow }

// binIndex returns the bin v falls into for series id.
func (w *WindowSet) binIndex(id SeriesID, v float64) int {
	edges := w.defs[id].Edges
	i := 0
	for i < len(edges) && v > edges[i] {
		i++
	}
	return w.offsets[id] + i
}

// ObserveEvidence records one evidence value into both rings.
func (w *WindowSet) ObserveEvidence(id SeriesID, v float64) {
	if w == nil || int(id) >= len(w.defs) {
		return
	}
	nowNS := w.cfg.Now().UnixNano()
	bin := w.binIndex(id, v)
	for _, r := range [2]*windowRing{w.fine, w.coarse} {
		s := r.slot(nowNS)
		if s == nil {
			continue
		}
		s.counts[bin].Add(1)
		addFloat(&s.sums[id], v)
	}
}

// ObserveVerify records one verification outcome. Decided verifies
// (accept/reject) also feed the latency-SLO counts; refused or abandoned
// attempts count only against availability.
func (w *WindowSet) ObserveVerify(o VerifyOutcome, latency time.Duration) {
	if w == nil || o < 0 || o >= numOutcomes {
		return
	}
	nowNS := w.cfg.Now().UnixNano()
	decided := o == OutcomeAccepted || o == OutcomeRejected
	good := w.cfg.LatencyGoodUnder <= 0 || latency <= w.cfg.LatencyGoodUnder
	for _, r := range [2]*windowRing{w.fine, w.coarse} {
		s := r.slot(nowNS)
		if s == nil {
			continue
		}
		s.outcomes[o].Add(1)
		if decided {
			s.latTotal.Add(1)
			s.latSumUS.Add(latency.Microseconds())
			if good {
				s.latOK.Add(1)
			}
		}
	}
}

// RecordRuntime stamps a process resource sample into the current slot
// of both rings (last sample in a period wins).
func (w *WindowSet) RecordRuntime(sample RuntimeSample) {
	if w == nil {
		return
	}
	now := w.cfg.Now()
	nowNS := now.UnixNano()
	for _, r := range [2]*windowRing{w.fine, w.coarse} {
		s := r.slot(nowNS)
		if s == nil {
			continue
		}
		s.sampleUnix.Store(now.Unix())
		s.heapBytes.Store(sample.HeapBytes)
		s.goroutines.Store(sample.Goroutines)
		s.gcPauseTotalUS.Store(sample.GCPauseTotalUS)
		s.allocTotal.Store(sample.AllocBytesTotal)
	}
}

// addFloat CAS-adds v into a float64-bits atomic.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Dist is a binned distribution snapshot of one series over a window.
type Dist struct {
	// Counts holds one count per bin (len(Edges)+1, last = overflow).
	Counts []int64
	// Total is the sample count.
	Total int64
	// Sum is the sum of observed values.
	Sum float64
}

// Mean returns the window mean (NaN when empty).
func (d Dist) Mean() float64 {
	if d.Total == 0 {
		return math.NaN()
	}
	return d.Sum / float64(d.Total)
}

// ringFor picks the tightest ring covering a lookback.
func (w *WindowSet) ringFor(lookback time.Duration) *windowRing {
	if int64(lookback) <= w.fine.width*int64(len(w.fine.slots)) {
		return w.fine
	}
	return w.coarse
}

// SeriesDist aggregates one series over the trailing lookback.
func (w *WindowSet) SeriesDist(id SeriesID, lookback time.Duration) Dist {
	return w.seriesDist(id, w.ringFor(lookback), w.cfg.Now().UnixNano(), int64(lookback))
}

func (w *WindowSet) seriesDist(id SeriesID, ring *windowRing, nowNS, lookbackNS int64) Dist {
	d := Dist{Counts: make([]int64, len(w.defs[id].Edges)+1)}
	if int(id) >= len(w.defs) {
		return d
	}
	off := w.offsets[id]
	ring.visit(nowNS, lookbackNS, func(s *windowSlot) {
		for i := range d.Counts {
			d.Counts[i] += s.counts[off+i].Load()
		}
		d.Sum += math.Float64frombits(s.sums[id].Load())
	})
	for _, c := range d.Counts {
		d.Total += c
	}
	return d
}

// OutcomeTotals aggregates the outcome and latency counters over the
// trailing lookback.
func (w *WindowSet) OutcomeTotals(lookback time.Duration) (outcomes [5]int64, latOK, latTotal, latSumUS int64) {
	w.ringFor(lookback).visit(w.cfg.Now().UnixNano(), int64(lookback), func(s *windowSlot) {
		for i := range outcomes {
			outcomes[i] += s.outcomes[i].Load()
		}
		latOK += s.latOK.Load()
		latTotal += s.latTotal.Load()
		latSumUS += s.latSumUS.Load()
	})
	return outcomes, latOK, latTotal, latSumUS
}

// Baseline is a pinned reference distribution set drift scores compare
// the live window against.
type Baseline struct {
	// PinnedUnix is when the baseline was pinned (seconds).
	PinnedUnix int64
	// Window is the lookback the baseline aggregated.
	Window time.Duration
	// Dists holds one distribution per registered series.
	Dists []Dist

	pinnedNS int64
}

// PinBaseline snapshots the trailing lookback of every series as the
// drift baseline and returns it.
func (w *WindowSet) PinBaseline(lookback time.Duration) *Baseline {
	now := w.cfg.Now()
	b := &Baseline{
		PinnedUnix: now.Unix(),
		Window:     lookback,
		Dists:      make([]Dist, len(w.defs)),
		pinnedNS:   now.UnixNano(),
	}
	for i := range w.defs {
		b.Dists[i] = w.SeriesDist(SeriesID(i), lookback)
	}
	w.baseline.Store(b)
	return b
}

// Baseline returns the pinned baseline (nil before any pin).
func (w *WindowSet) Baseline() *Baseline { return w.baseline.Load() }

// DriftScore is one series' live-vs-baseline comparison, in the form
// /debug/drift serializes it.
type DriftScore struct {
	// Stage and Metric identify the series.
	Stage  string `json:"stage"`
	Metric string `json:"metric"`
	// PSI is the population stability index between the live window and
	// the baseline; KS the binned two-sample Kolmogorov–Smirnov
	// statistic. Both are 0 when either window is empty.
	PSI float64 `json:"psi"` // unit: dimensionless
	KS  float64 `json:"ks"`  // unit: dimensionless
	// Alert is true when PSI exceeds the report's alert threshold; Drift
	// leaves it false and the report sets it.
	Alert bool `json:"alert"`
	// LiveCount and BaselineCount are the window sample counts.
	LiveCount     int64 `json:"live_count"`
	BaselineCount int64 `json:"baseline_count"`
	// LiveMean and BaselineMean are the window means (0 when empty).
	LiveMean     float64 `json:"live_mean,omitempty"`     // unit: any
	BaselineMean float64 `json:"baseline_mean,omitempty"` // unit: any
}

// Drift scores every series' live window against the pinned baseline.
// Without a baseline every score is zero (counts still report). The live
// window starts after the slot the baseline was pinned in, since the
// baseline holds that slot's samples; samples that land in that slot
// after the pin count in neither window.
func (w *WindowSet) Drift() []DriftScore {
	b := w.baseline.Load()
	ring := w.ringFor(w.cfg.LiveWindow)
	nowNS := w.cfg.Now().UnixNano()
	lookbackNS := int64(w.cfg.LiveWindow)
	if b != nil {
		// A negative lookback (still inside the pinned slot) visits no slot.
		lookbackNS = min(lookbackNS, nowNS-(b.pinnedNS/ring.width+1)*ring.width)
	}
	out := make([]DriftScore, len(w.defs))
	for i, def := range w.defs {
		live := w.seriesDist(SeriesID(i), ring, nowNS, lookbackNS)
		ds := DriftScore{Stage: def.Stage, Metric: def.Metric, LiveCount: live.Total}
		if live.Total > 0 {
			ds.LiveMean = live.Mean()
		}
		if b != nil && i < len(b.Dists) {
			ref := b.Dists[i]
			ds.BaselineCount = ref.Total
			if ref.Total > 0 {
				ds.BaselineMean = ref.Mean()
			}
			ds.PSI = PSI(live, ref)
			ds.KS = KSStat(live, ref)
		}
		out[i] = ds
	}
	return out
}

// psiSmoothing is the additive (Laplace) count added to every bin before
// PSI's log-ratio, so empty bins cannot produce infinities. Half an
// observation is the conventional Jeffreys choice.
const psiSmoothing = 0.5

// Conventional PSI interpretation thresholds: below PSIStableBelow the
// live population matches the baseline, between the two it has shifted
// moderately, above PSIActionAbove the shift demands action.
const (
	PSIStableBelow = 0.1  // unit: dimensionless
	PSIActionAbove = 0.25 // unit: dimensionless
)

// PSI computes the population stability index between two binned
// distributions sharing one bin layout: Σ (p−q)·ln(p/q) over smoothed
// bin proportions. The conventional reading: < 0.1 stable, 0.1–0.25
// moderate shift, > 0.25 action required. Returns 0 when either window
// is empty or the layouts disagree.
func PSI(live, base Dist) float64 {
	if live.Total == 0 || base.Total == 0 || len(live.Counts) != len(base.Counts) {
		return 0
	}
	bins := float64(len(live.Counts))
	ln := float64(live.Total) + psiSmoothing*bins
	bn := float64(base.Total) + psiSmoothing*bins
	var psi float64
	for i := range live.Counts {
		p := (float64(live.Counts[i]) + psiSmoothing) / ln
		q := (float64(base.Counts[i]) + psiSmoothing) / bn
		psi += (p - q) * math.Log(p/q)
	}
	return psi
}

// KSStat computes the binned two-sample Kolmogorov–Smirnov statistic:
// the maximum absolute difference between the two empirical CDFs
// evaluated at the shared bin edges. Returns 0 when either window is
// empty or the layouts disagree.
func KSStat(live, base Dist) float64 {
	if live.Total == 0 || base.Total == 0 || len(live.Counts) != len(base.Counts) {
		return 0
	}
	var ks, cl, cb float64
	for i := range live.Counts {
		cl += float64(live.Counts[i]) / float64(live.Total)
		cb += float64(base.Counts[i]) / float64(base.Total)
		if d := math.Abs(cl - cb); d > ks {
			ks = d
		}
	}
	return ks
}

// SLOConfig declares the serving objectives burn rates are computed
// against. Zero objectives disable the corresponding SLO.
type SLOConfig struct {
	// AvailabilityObjective is the target fraction of attempts answered
	// with a decision (errors, deadline-exceeded and shed burn budget).
	AvailabilityObjective float64 // unit: dimensionless
	// LatencyObjective is the target fraction of decided verifies at or
	// under the WindowConfig.LatencyGoodUnder threshold.
	LatencyObjective float64 // unit: dimensionless
}

// BurnRate is one SLO's budget burn over one window: the observed bad
// ratio divided by the error budget (1 − objective). Burn 1 exactly
// spends the budget; a 0.1% objective burning at 14 for an hour is the
// classic page condition.
type BurnRate struct {
	// SLO names the objective ("availability", "latency").
	SLO string `json:"slo"`
	// Window labels the lookback ("5m", "1h", "6h").
	Window string `json:"window"`
	// Burn is badRatio / (1 − objective); 0 with no traffic.
	Burn float64 `json:"burn"` // unit: dimensionless
	// BadRatio is the observed violation fraction in the window.
	BadRatio float64 `json:"bad_ratio"` // unit: dimensionless
	// Total is the attempts considered in the window.
	Total int64 `json:"total"`
}

// DefBurnWindows are the standard multi-window burn-rate lookbacks.
var DefBurnWindows = []time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour}

// burnLabel renders a lookback compactly ("5m", "1h", "6h").
func burnLabel(d time.Duration) string {
	if d%time.Hour == 0 {
		h := int64(d / time.Hour)
		return strconv.FormatInt(h, 10) + "h"
	}
	return strconv.FormatInt(int64(d/time.Minute), 10) + "m"
}

// BurnRates computes multi-window burn rates for the configured SLOs
// over the given lookbacks (nil selects DefBurnWindows).
func (w *WindowSet) BurnRates(slo SLOConfig, windows []time.Duration) []BurnRate {
	if windows == nil {
		windows = DefBurnWindows
	}
	var out []BurnRate
	for _, win := range windows {
		outcomes, latOK, latTotal, _ := w.OutcomeTotals(win)
		var total int64
		for _, n := range outcomes {
			total += n
		}
		if slo.AvailabilityObjective > 0 && slo.AvailabilityObjective < 1 {
			bad := outcomes[OutcomeError] + outcomes[OutcomeDeadlineExceeded] + outcomes[OutcomeShed]
			out = append(out, burnRate("availability", win, bad, total, slo.AvailabilityObjective))
		}
		if slo.LatencyObjective > 0 && slo.LatencyObjective < 1 {
			out = append(out, burnRate("latency", win, latTotal-latOK, latTotal, slo.LatencyObjective))
		}
	}
	return out
}

func burnRate(name string, win time.Duration, bad, total int64, objective float64) BurnRate {
	br := BurnRate{SLO: name, Window: burnLabel(win), Total: total}
	if total > 0 {
		br.BadRatio = float64(bad) / float64(total)
		br.Burn = br.BadRatio / (1 - objective)
	}
	return br
}

// ResourceUsage summarizes the sampled process state over the live
// window, with per-decision attribution derived from cumulative-counter
// deltas between the window's first and last samples.
type ResourceUsage struct {
	// HeapBytes and Goroutines are the latest sampled values.
	HeapBytes  int64 `json:"heap_bytes"`
	Goroutines int64 `json:"goroutines"`
	// GCPauseTotalUS is the cumulative stop-the-world GC pause at the
	// latest sample, microseconds.
	GCPauseTotalUS int64 `json:"gc_pause_total_us"` // unit: µs
	// AllocPerDecisionBytes is heap bytes allocated per decided verify
	// across the window (0 without two samples or without decisions).
	AllocPerDecisionBytes float64 `json:"alloc_per_decision_bytes,omitempty"` // unit: any
	// GCPausePerDecisionUS is GC pause microseconds accrued per decided
	// verify across the window.
	GCPausePerDecisionUS float64 `json:"gc_pause_per_decision_us,omitempty"` // unit: µs
	// Samples is how many sampled slots the window held.
	Samples int `json:"samples"`
}

// Resources derives the live-window resource summary from the fine ring.
func (w *WindowSet) Resources() ResourceUsage {
	var u ResourceUsage
	var firstAlloc, lastAlloc, firstPause, lastPause int64
	var decisions int64
	w.fine.visit(w.cfg.Now().UnixNano(), int64(w.cfg.LiveWindow), func(s *windowSlot) {
		decisions += s.outcomes[OutcomeAccepted].Load() + s.outcomes[OutcomeRejected].Load()
		if s.sampleUnix.Load() == 0 {
			return
		}
		if u.Samples == 0 {
			firstAlloc = s.allocTotal.Load()
			firstPause = s.gcPauseTotalUS.Load()
		}
		u.Samples++
		lastAlloc = s.allocTotal.Load()
		lastPause = s.gcPauseTotalUS.Load()
		u.HeapBytes = s.heapBytes.Load()
		u.Goroutines = s.goroutines.Load()
		u.GCPauseTotalUS = lastPause
	})
	if u.Samples >= 2 && decisions > 0 {
		u.AllocPerDecisionBytes = float64(lastAlloc-firstAlloc) / float64(decisions)
		u.GCPausePerDecisionUS = float64(lastPause-firstPause) / float64(decisions)
	}
	return u
}

// TimelineSeries is one series' summary within a timeline point.
type TimelineSeries struct {
	// Stage and Metric identify the series.
	Stage  string `json:"stage"`
	Metric string `json:"metric"`
	// Count is the window's sample count; Mean its mean (omitted when
	// empty).
	Count int64   `json:"count"`
	Mean  float64 `json:"mean,omitempty"` // unit: any
}

// TimelinePoint is one fine-ring slot rendered for the /debug/drift
// timeline.
type TimelinePoint struct {
	// Unix is the slot period's start, seconds since the epoch.
	Unix int64 `json:"unix"`
	// Accepted/Rejected/Errors/DeadlineExceeded/Shed are the outcome
	// counts of the period.
	Accepted         int64 `json:"accepted"`
	Rejected         int64 `json:"rejected"`
	Errors           int64 `json:"errors,omitempty"`
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	Shed             int64 `json:"shed,omitempty"`
	// LatencyMeanUS is the mean decided-verify latency, µs.
	LatencyMeanUS float64 `json:"latency_mean_us,omitempty"` // unit: µs
	// HeapBytes and Goroutines carry the period's process sample (0 when
	// unsampled).
	HeapBytes  int64 `json:"heap_bytes,omitempty"`
	Goroutines int64 `json:"goroutines,omitempty"`
	// Series summarizes every registered evidence series in the period.
	Series []TimelineSeries `json:"series,omitempty"`
}

// Timeline renders the newest n fine-ring slots oldest-first (n ≤ 0 =
// all). Only slots that saw traffic or a sample are included.
func (w *WindowSet) Timeline(n int) []TimelinePoint {
	span := w.fine.width * int64(len(w.fine.slots))
	if n > 0 && n < len(w.fine.slots) {
		span = w.fine.width * int64(n)
	}
	var out []TimelinePoint
	w.fine.visit(w.cfg.Now().UnixNano(), span-1, func(s *windowSlot) {
		p := TimelinePoint{
			Unix:             s.epoch.Load() * w.fine.width / int64(time.Second),
			Accepted:         s.outcomes[OutcomeAccepted].Load(),
			Rejected:         s.outcomes[OutcomeRejected].Load(),
			Errors:           s.outcomes[OutcomeError].Load(),
			DeadlineExceeded: s.outcomes[OutcomeDeadlineExceeded].Load(),
			Shed:             s.outcomes[OutcomeShed].Load(),
			HeapBytes:        s.heapBytes.Load(),
			Goroutines:       s.goroutines.Load(),
		}
		if lt := s.latTotal.Load(); lt > 0 {
			p.LatencyMeanUS = float64(s.latSumUS.Load()) / float64(lt)
		}
		empty := p.Accepted+p.Rejected+p.Errors+p.DeadlineExceeded+p.Shed == 0 &&
			s.sampleUnix.Load() == 0
		if empty {
			return
		}
		for i, def := range w.defs {
			var count int64
			for b := 0; b <= len(def.Edges); b++ {
				count += s.counts[w.offsets[i]+b].Load()
			}
			ts := TimelineSeries{Stage: def.Stage, Metric: def.Metric, Count: count}
			if count > 0 {
				ts.Mean = math.Float64frombits(s.sums[i].Load()) / float64(count)
			}
			p.Series = append(p.Series, ts)
		}
		out = append(out, p)
	})
	return out
}
