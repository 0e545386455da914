package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic, concurrency-safe time source for window
// tests: rotation and drift must be reproducible, so nothing here reads
// the real clock.
type fakeClock struct {
	ns atomic.Int64
}

func newFakeClock(at time.Time) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(at.UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }
func (c *fakeClock) Set(at time.Time)        { c.ns.Store(at.UnixNano()) }

// testBase is an arbitrary fixed origin; all window tests run on the
// fake clock relative to it.
var testBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func testWindowSet(clock *fakeClock) *WindowSet {
	return NewWindowSet(WindowConfig{
		Now:              clock.Now,
		LatencyGoodUnder: 500 * time.Millisecond,
	}, []SeriesDef{
		{Stage: "loudspeaker", Metric: "field_ut", Edges: []float64{1, 2, 4, 8, 16}},
		{Stage: "identity", Metric: "llr", Edges: []float64{-1, -0.5, 0, 0.5, 1}},
	})
}

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty_hist", []float64{1, 2, 4}, nil)
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram quantile = %v, want NaN", q)
	}
	if q := h.Quantile(math.NaN()); !math.IsNaN(q) {
		t.Errorf("NaN quantile request = %v, want NaN", q)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("single_bucket", []float64{10}, nil)
	for i := 0; i < 5; i++ {
		h.Observe(3)
	}
	// Every observation lives in [0, 10]; any quantile interpolates
	// inside that bucket and out-of-range requests clamp to [0, 1].
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := h.Quantile(q)
		if math.IsNaN(got) || got < 0 || got > 10 {
			t.Errorf("Quantile(%v) = %v, want within [0, 10]", q, got)
		}
	}
	if q0, q1 := h.Quantile(0), h.Quantile(1); q0 > q1 {
		t.Errorf("quantiles not monotone: q0 %v > q1 %v", q0, q1)
	}
}

func TestHistogramQuantileAllOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("overflow_hist", []float64{1, 2, 4}, nil)
	for i := 0; i < 7; i++ {
		h.Observe(100) // far past the last finite bound
	}
	// With every sample in the +Inf bucket the best available estimate
	// is the highest finite bound — never +Inf, never NaN.
	for _, q := range []float64{0.1, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 4 {
			t.Errorf("all-overflow Quantile(%v) = %v, want 4 (highest finite bound)", q, got)
		}
	}
}

func TestWindowSetObserveAndDist(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, ok := w.SeriesByName("loudspeaker", "field_ut")
	if !ok {
		t.Fatal("registered series not found")
	}
	for _, v := range []float64{0.5, 1.5, 3, 3, 100} {
		w.ObserveEvidence(id, v)
	}
	d := w.SeriesDist(id, 5*time.Minute)
	if d.Total != 5 {
		t.Fatalf("total = %d, want 5", d.Total)
	}
	// Bins: ≤1, ≤2, ≤4, ≤8, ≤16, overflow.
	want := []int64{1, 1, 2, 0, 0, 1}
	for i, c := range want {
		if d.Counts[i] != c {
			t.Errorf("bin %d = %d, want %d", i, d.Counts[i], c)
		}
	}
	if mean := d.Mean(); math.Abs(mean-(0.5+1.5+3+3+100)/5) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
}

func TestWindowRotationExpiresOldSlots(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, _ := w.SeriesByName("identity", "llr")
	w.ObserveEvidence(id, 0.3)
	// Advance past the entire fine ring: the old minute's slot must be
	// recycled, not double-counted.
	clock.Advance(time.Duration(DefFineSlots+5) * time.Minute)
	w.ObserveEvidence(id, 0.4)
	if d := w.SeriesDist(id, 5*time.Minute); d.Total != 1 {
		t.Errorf("live total after rotation = %d, want 1", d.Total)
	}
	// The coarse ring still covers both (24h window, ~65 min apart).
	if d := w.SeriesDist(id, 12*time.Hour); d.Total != 2 {
		t.Errorf("coarse total = %d, want 2", d.Total)
	}
	// Rotate past the coarse ring too.
	clock.Advance(time.Duration(DefCoarseSlots+2) * time.Hour)
	if d := w.SeriesDist(id, 12*time.Hour); d.Total != 0 {
		t.Errorf("coarse total after full rotation = %d, want 0", d.Total)
	}
}

func TestWindowConcurrentWriters(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	fieldID, _ := w.SeriesByName("loudspeaker", "field_ut")
	llrID, _ := w.SeriesByName("identity", "llr")

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.ObserveEvidence(fieldID, float64(i%20))
				w.ObserveEvidence(llrID, float64(i%3)-1)
				w.ObserveVerify(OutcomeAccepted, time.Duration(i)*time.Millisecond)
				if i%50 == 0 {
					// Writers racing rotation: the clock moves forward
					// while observations are in flight.
					clock.Advance(11 * time.Second)
				}
			}
		}(g)
	}
	wg.Wait()

	// Everything was written within the last writers*perWriter/50 * 11s
	// ≈ 15 min of fake time; the fine ring (60 min) holds it all.
	d := w.SeriesDist(fieldID, time.Hour)
	if d.Total != writers*perWriter {
		t.Errorf("field total = %d, want %d", d.Total, writers*perWriter)
	}
	outcomes, _, latTotal, _ := w.OutcomeTotals(time.Hour)
	if outcomes[OutcomeAccepted] != writers*perWriter {
		t.Errorf("accepted = %d, want %d", outcomes[OutcomeAccepted], writers*perWriter)
	}
	if latTotal != writers*perWriter {
		t.Errorf("latency total = %d, want %d", latTotal, writers*perWriter)
	}
}

func TestPSIAndKSSeparateShiftedDistributions(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, _ := w.SeriesByName("loudspeaker", "field_ut")

	// Baseline: tight genuine-like distribution near zero swing.
	for i := 0; i < 200; i++ {
		w.ObserveEvidence(id, 0.4+0.02*float64(i%10))
	}
	w.PinBaseline(5 * time.Minute)

	// Same-shaped live traffic: drift must stay quiet.
	clock.Advance(time.Minute)
	for i := 0; i < 100; i++ {
		w.ObserveEvidence(id, 0.4+0.02*float64(i%10))
	}
	quiet := w.Drift()[int(id)]
	if quiet.PSI > 0.1 {
		t.Errorf("matched traffic PSI = %v, want < 0.1", quiet.PSI)
	}

	// Shifted wave (loudspeaker swings): drift must fire.
	clock.Advance(10 * time.Minute) // move the quiet live window out of scope
	for i := 0; i < 100; i++ {
		w.ObserveEvidence(id, 20+float64(i%10))
	}
	loud := w.Drift()[int(id)]
	if loud.PSI < 0.25 {
		t.Errorf("shifted traffic PSI = %v, want > 0.25", loud.PSI)
	}
	if loud.KS < 0.5 {
		t.Errorf("shifted traffic KS = %v, want > 0.5", loud.KS)
	}
	if quiet.PSI >= loud.PSI {
		t.Errorf("PSI did not separate: quiet %v vs shifted %v", quiet.PSI, loud.PSI)
	}
}

// TestDriftLiveWindowStartsAfterPin: the baseline already holds every
// sample of the slot it was pinned in, so the live window must not count
// them again. 40 baseline samples, a pin, then 20 attack samples a minute
// later: the live window holds the 20 attack samples alone.
func TestDriftLiveWindowStartsAfterPin(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, _ := w.SeriesByName("loudspeaker", "field_ut")
	for i := 0; i < 40; i++ {
		w.ObserveEvidence(id, 0.5+0.05*float64(i%8))
	}
	w.PinBaseline(5 * time.Minute)
	if got := w.Drift()[int(id)]; got.LiveCount != 0 || got.BaselineCount != 40 {
		t.Errorf("right after the pin: live %d, baseline %d; want 0, 40", got.LiveCount, got.BaselineCount)
	}
	clock.Advance(time.Minute)
	for i := 0; i < 20; i++ {
		w.ObserveEvidence(id, 25+float64(i%10))
	}
	got := w.Drift()[int(id)]
	if got.LiveCount != 20 || got.LiveMean != 29.5 {
		t.Errorf("live window = %d samples, mean %v; want 20, 29.5", got.LiveCount, got.LiveMean)
	}
	if got.BaselineCount != 40 {
		t.Errorf("baseline = %d samples, want 40", got.BaselineCount)
	}
	// Once the pinned slot is older than the live window, the live
	// window is the plain trailing lookback again.
	clock.Advance(10 * time.Minute)
	w.ObserveEvidence(id, 3)
	if got := w.Drift()[int(id)]; got.LiveCount != 1 {
		t.Errorf("live window long after the pin = %d samples, want 1", got.LiveCount)
	}
}

func TestDriftWithoutBaselineIsZero(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, _ := w.SeriesByName("identity", "llr")
	w.ObserveEvidence(id, 0.5)
	for _, ds := range w.Drift() {
		if ds.PSI != 0 || ds.KS != 0 {
			t.Errorf("series %s/%s drift without baseline = PSI %v KS %v, want 0",
				ds.Stage, ds.Metric, ds.PSI, ds.KS)
		}
	}
}

func TestPSIEmptyAndMismatchedWindows(t *testing.T) {
	full := Dist{Counts: []int64{5, 5}, Total: 10}
	empty := Dist{Counts: []int64{0, 0}}
	if got := PSI(full, empty); got != 0 {
		t.Errorf("PSI vs empty = %v, want 0", got)
	}
	if got := KSStat(empty, full); got != 0 {
		t.Errorf("KS from empty = %v, want 0", got)
	}
	mismatched := Dist{Counts: []int64{10}, Total: 10}
	if got := PSI(full, mismatched); got != 0 {
		t.Errorf("PSI across layouts = %v, want 0", got)
	}
	if got := PSI(full, full); math.Abs(got) > 1e-12 {
		t.Errorf("PSI self = %v, want 0", got)
	}
	if got := KSStat(full, full); got != 0 {
		t.Errorf("KS self = %v, want 0", got)
	}
}

func TestBurnRates(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)

	// 90 good decisions, 5 slow decisions, 5 errors.
	for i := 0; i < 90; i++ {
		w.ObserveVerify(OutcomeAccepted, 100*time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		w.ObserveVerify(OutcomeRejected, 2*time.Second) // over the 500ms good threshold
	}
	for i := 0; i < 5; i++ {
		w.ObserveVerify(OutcomeError, 0)
	}

	slo := SLOConfig{AvailabilityObjective: 0.999, LatencyObjective: 0.99}
	rates := w.BurnRates(slo, []time.Duration{5 * time.Minute})
	if len(rates) != 2 {
		t.Fatalf("got %d burn rates, want 2", len(rates))
	}
	byName := map[string]BurnRate{}
	for _, br := range rates {
		byName[br.SLO] = br
	}
	// Availability: 5 bad of 100 attempts, budget 0.001 → burn 50.
	avail := byName["availability"]
	if math.Abs(avail.BadRatio-0.05) > 1e-9 || math.Abs(avail.Burn-50) > 1e-6 {
		t.Errorf("availability burn = %+v, want bad 0.05 burn 50", avail)
	}
	// Latency: 5 slow of 95 decided, budget 0.01 → burn ≈ 5.26.
	lat := byName["latency"]
	wantBad := 5.0 / 95.0
	if math.Abs(lat.BadRatio-wantBad) > 1e-9 || math.Abs(lat.Burn-wantBad/0.01) > 1e-6 {
		t.Errorf("latency burn = %+v, want bad %v burn %v", lat, wantBad, wantBad/0.01)
	}
	if avail.Window != "5m" {
		t.Errorf("window label = %q, want 5m", avail.Window)
	}
}

func TestBurnRatesNoTraffic(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	for _, br := range w.BurnRates(SLOConfig{AvailabilityObjective: 0.999, LatencyObjective: 0.99}, nil) {
		if br.Burn != 0 || br.BadRatio != 0 || br.Total != 0 {
			t.Errorf("idle burn rate %+v, want zeros", br)
		}
	}
}

func TestTimelineAndRuntimeSamples(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, _ := w.SeriesByName("identity", "llr")

	w.ObserveEvidence(id, 0.5)
	w.ObserveVerify(OutcomeAccepted, 100*time.Millisecond)
	w.RecordRuntime(RuntimeSample{HeapBytes: 1 << 20, Goroutines: 7, AllocBytesTotal: 1000})
	clock.Advance(time.Minute)
	w.ObserveVerify(OutcomeRejected, 200*time.Millisecond)
	w.RecordRuntime(RuntimeSample{HeapBytes: 2 << 20, Goroutines: 9, AllocBytesTotal: 3000})

	tl := w.Timeline(10)
	if len(tl) != 2 {
		t.Fatalf("timeline slots = %d, want 2", len(tl))
	}
	if tl[0].Unix >= tl[1].Unix {
		t.Error("timeline not oldest-first")
	}
	if tl[0].Accepted != 1 || tl[1].Rejected != 1 {
		t.Errorf("timeline outcomes wrong: %+v", tl)
	}
	if tl[1].HeapBytes != 2<<20 || tl[1].Goroutines != 9 {
		t.Errorf("timeline runtime sample wrong: %+v", tl[1])
	}

	u := w.Resources()
	if u.Samples != 2 {
		t.Fatalf("resource samples = %d, want 2", u.Samples)
	}
	// 2000 alloc bytes across 2 decided verifies.
	if math.Abs(u.AllocPerDecisionBytes-1000) > 1e-9 {
		t.Errorf("alloc/decision = %v, want 1000", u.AllocPerDecisionBytes)
	}
}

func TestReadRuntimeSample(t *testing.T) {
	s := ReadRuntimeSample()
	if s.HeapBytes <= 0 {
		t.Errorf("heap bytes = %d, want > 0", s.HeapBytes)
	}
	if s.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", s.Goroutines)
	}
	if s.AllocBytesTotal <= 0 {
		t.Errorf("alloc total = %d, want > 0", s.AllocBytesTotal)
	}
}

func TestObserveEvidenceNoAllocs(t *testing.T) {
	clock := newFakeClock(testBase)
	w := testWindowSet(clock)
	id, _ := w.SeriesByName("loudspeaker", "field_ut")
	allocs := testing.AllocsPerRun(200, func() {
		w.ObserveEvidence(id, 3.5)
		w.ObserveVerify(OutcomeAccepted, 50*time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("observe path allocates %v per op, want 0", allocs)
	}
}
