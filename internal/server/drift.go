package server

// Time-aware observability wiring: the server owns a telemetry.WindowSet
// fed from the /verify decision path (evidence values, outcomes,
// latencies) plus scrape-time runtime samples, and derives from it the
// drift gauges, SLO burn rates, process gauges, and the /debug/drift
// JSON surface. All derivation happens on scrape — the serving path only
// performs the window writes, which are allocation-free.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/telemetry"
)

// Drift/SLO/resource metric names exported on /metrics.
const (
	MetricStageDrift        = "voiceguard_stage_drift"
	MetricStageDriftKS      = "voiceguard_stage_drift_ks"
	MetricSLOBurnRate       = "voiceguard_slo_burn_rate"
	MetricGoHeapBytes       = "voiceguard_go_heap_bytes"
	MetricGoGCPauseUS       = "voiceguard_go_gc_pause_us"
	MetricGoGoroutines      = "voiceguard_go_goroutines"
	MetricAllocsPerDecision = "voiceguard_allocs_per_decision_bytes"
)

// DriftRoute serves the drift/SLO/resource JSON report.
const DriftRoute = "/debug/drift"

// DriftPinRoute pins the live distribution as the drift baseline (POST;
// optional ?window=10m lookback, default the live window).
const DriftPinRoute = "/debug/drift/pin"

// DefaultDriftAlertPSI is the PSI above which a series alerts — the
// conventional "population has shifted, act" threshold.
const DefaultDriftAlertPSI = telemetry.PSIActionAbove

// seriesKey addresses one drift gauge pair without allocating.
type seriesKey struct{ stage, metric string }

// burnKey addresses one burn-rate gauge.
type burnKey struct{ slo, window string }

// WithSLO declares the serving objectives: availability (fraction of
// attempts answered with a decision) and latency (fraction of decided
// verifies at or under goodUnder). Burn-rate gauges over 5m/1h/6h
// windows appear on /metrics and /debug/drift. An objective ≤ 0 or ≥ 1
// disables that SLO.
func WithSLO(availability, latency float64, goodUnder time.Duration) Option {
	return func(s *Server) {
		s.slo = telemetry.SLOConfig{
			AvailabilityObjective: availability,
			LatencyObjective:      latency,
		}
		s.sloGoodUnder = goodUnder
	}
}

// WithWindowConfig overrides the rolling-window geometry and clock —
// tests and replay experiments inject a simulated clock here so rotation
// and drift are deterministic.
func WithWindowConfig(cfg telemetry.WindowConfig) Option {
	return func(s *Server) { s.windowCfg = &cfg }
}

// WithDriftEndpoint toggles the /debug/drift JSON surface (enabled by
// default — unlike the decision endpoints it exposes only aggregate
// distributions, no per-user evidence). Windows are still fed when
// disabled; only the HTTP route goes away.
func WithDriftEndpoint(enabled bool) Option {
	return func(s *Server) { s.driftOff = !enabled }
}

// initObservability builds the window set and registers the derived
// metric families. Called from New after the registry exists.
func (s *Server) initObservability() {
	cfg := telemetry.WindowConfig{}
	if s.windowCfg != nil {
		cfg = *s.windowCfg
	}
	if cfg.LatencyGoodUnder == 0 {
		cfg.LatencyGoodUnder = s.sloGoodUnder
	}
	defs := core.EvidenceSeriesDefs()
	s.windows = telemetry.NewWindowSet(cfg, defs)
	s.observer = core.NewEvidenceObserver(s.windows)

	r := s.registry
	s.driftPSI = make(map[seriesKey]*telemetry.Gauge, len(defs))
	s.driftKS = make(map[seriesKey]*telemetry.Gauge, len(defs))
	for _, d := range defs {
		labels := telemetry.Labels{"stage": d.Stage, "metric": d.Metric}
		k := seriesKey{stage: d.Stage, metric: d.Metric}
		s.driftPSI[k] = r.Gauge(MetricStageDrift, labels)
		s.driftKS[k] = r.Gauge(MetricStageDriftKS, labels)
	}
	r.SetHelp(MetricStageDrift, "PSI between the live evidence window and the pinned baseline")
	r.SetHelp(MetricStageDriftKS, "binned two-sample KS statistic between the live window and the pinned baseline")

	if s.sloConfigured() {
		s.burnGauges = make(map[burnKey]*telemetry.Gauge)
		for _, br := range s.windows.BurnRates(s.slo, nil) {
			s.burnGauges[burnKey{slo: br.SLO, window: br.Window}] =
				r.Gauge(MetricSLOBurnRate, telemetry.Labels{"slo": br.SLO, "window": br.Window})
		}
		r.SetHelp(MetricSLOBurnRate, "error-budget burn rate (bad ratio / budget) per objective and window")
	}

	s.goHeap = r.Gauge(MetricGoHeapBytes, nil)
	r.SetHelp(MetricGoHeapBytes, "live heap object bytes (runtime/metrics)")
	s.goGCPause = r.Gauge(MetricGoGCPauseUS, nil)
	r.SetHelp(MetricGoGCPauseUS, "cumulative GC stop-the-world pause microseconds")
	s.goGoroutines = r.Gauge(MetricGoGoroutines, nil)
	r.SetHelp(MetricGoGoroutines, "current goroutine count")
	s.allocsPerDecision = r.Gauge(MetricAllocsPerDecision, nil)
	r.SetHelp(MetricAllocsPerDecision, "heap bytes allocated per decided verify over the live window")
}

// sloConfigured reports whether any objective is active.
func (s *Server) sloConfigured() bool {
	return (s.slo.AvailabilityObjective > 0 && s.slo.AvailabilityObjective < 1) ||
		(s.slo.LatencyObjective > 0 && s.slo.LatencyObjective < 1)
}

// refreshObservability recomputes every window-derived gauge. Runs at
// scrape/report time, never on the serving path.
func (s *Server) refreshObservability() {
	sample := telemetry.ReadRuntimeSample()
	s.windows.RecordRuntime(sample)
	s.goHeap.Set(float64(sample.HeapBytes))
	s.goGCPause.Set(float64(sample.GCPauseTotalUS))
	s.goGoroutines.Set(float64(sample.Goroutines))
	for _, ds := range s.windows.Drift() {
		k := seriesKey{stage: ds.Stage, metric: ds.Metric}
		if g, ok := s.driftPSI[k]; ok {
			g.Set(ds.PSI)
		}
		if g, ok := s.driftKS[k]; ok {
			g.Set(ds.KS)
		}
	}
	if s.burnGauges != nil {
		for _, br := range s.windows.BurnRates(s.slo, nil) {
			if g, ok := s.burnGauges[burnKey{slo: br.SLO, window: br.Window}]; ok {
				g.Set(br.Burn)
			}
		}
	}
	s.allocsPerDecision.Set(s.windows.Resources().AllocPerDecisionBytes)
}

// DriftReport computes the current drift/SLO/resource report — the same
// document /debug/drift serves.
func (s *Server) DriftReport(timeline int) telemetry.DriftReport {
	s.refreshObservability()
	rep := telemetry.DriftReport{
		GeneratedUnix: time.Now().Unix(),
		LiveWindow:    s.windows.LiveWindow().String(),
		AlertPSI:      DefaultDriftAlertPSI,
	}
	if b := s.windows.Baseline(); b != nil {
		rep.BaselinePinnedUnix = b.PinnedUnix
		rep.BaselineWindow = b.Window.String()
	}
	rep.Drift = s.windows.Drift()
	for i := range rep.Drift {
		rep.Drift[i].Alert = rep.Drift[i].PSI > DefaultDriftAlertPSI
	}
	if s.sloConfigured() {
		rep.Burn = s.windows.BurnRates(s.slo, nil)
	}
	rep.Resources = s.windows.Resources()
	rep.Timeline = s.windows.Timeline(timeline)
	return rep
}

// Windows exposes the rolling-window set (tests, experiments).
func (s *Server) Windows() *telemetry.WindowSet { return s.windows }

// handleDrift serves the drift/SLO/resource JSON report. ?timeline=N
// bounds the fine-ring timeline (default 15 slots, 0 allowed).
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	timeline := 15
	if raw := r.URL.Query().Get("timeline"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad timeline %q: want a non-negative integer", raw), http.StatusBadRequest)
			return
		}
		timeline = n
	}
	s.writeJSON(w, "", http.StatusOK, s.DriftReport(timeline))
}

// handleDriftPin pins the drift baseline from the trailing window.
// POST only; optional ?window=10m lookback.
func (s *Server) handleDriftPin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	lookback := s.windows.LiveWindow()
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("bad window %q: want a positive duration", raw), http.StatusBadRequest)
			return
		}
		lookback = d
	}
	b := s.windows.PinBaseline(lookback)
	s.logger.Info("drift baseline pinned", "window", lookback)
	s.writeJSON(w, "", http.StatusOK, map[string]any{
		"pinned_unix": b.PinnedUnix,
		"window":      b.Window.String(),
	})
}
