package server

// Coverage for the time-aware observability layer: the /debug/drift
// surface, baseline pinning, drift gauges on /metrics, SLO burn rates,
// and the no-allocation contract of the window feed on the decision
// path.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// driftClock is a deterministic window clock for server tests.
type driftClock struct{ ns atomic.Int64 }

func newDriftClock() *driftClock {
	c := &driftClock{}
	c.ns.Store(time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *driftClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *driftClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestDriftEndpointLifecycle(t *testing.T) {
	clock := newDriftClock()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil,
		WithWindowConfig(telemetry.WindowConfig{Now: clock.Now, LatencyGoodUnder: time.Second}),
		WithSLO(0.999, 0.99, time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)

	w := srv.Windows()
	fieldID, ok := w.SeriesByName("loudspeaker", core.EvidenceFieldUT)
	if !ok {
		t.Fatal("field_ut series not registered")
	}

	// Genuine-shaped baseline traffic.
	for i := 0; i < 120; i++ {
		w.ObserveEvidence(fieldID, 0.5+0.05*float64(i%8))
		w.ObserveVerify(telemetry.OutcomeAccepted, 100*time.Millisecond)
	}
	resp, err := http.Post(ts.URL+DriftPinRoute+"?window=5m", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s returned %d", DriftPinRoute, resp.StatusCode)
	}

	// Attack-shaped live traffic: loudspeaker swings far above baseline.
	clock.Advance(time.Minute)
	for i := 0; i < 60; i++ {
		w.ObserveEvidence(fieldID, 25+float64(i%10))
		w.ObserveVerify(telemetry.OutcomeRejected, 100*time.Millisecond)
	}

	rep, err := c.DriftReport(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselinePinnedUnix == 0 {
		t.Error("baseline not pinned in report")
	}
	if rep.AlertPSI != DefaultDriftAlertPSI {
		t.Errorf("alert threshold = %v, want %v", rep.AlertPSI, DefaultDriftAlertPSI)
	}
	var fieldEntry *telemetry.DriftScore
	for i := range rep.Drift {
		if rep.Drift[i].Metric == core.EvidenceFieldUT {
			fieldEntry = &rep.Drift[i]
		}
	}
	if fieldEntry == nil {
		t.Fatalf("field_ut missing from report: %+v", rep.Drift)
	}
	if !fieldEntry.Alert || fieldEntry.PSI <= DefaultDriftAlertPSI {
		t.Errorf("attack wave did not alert: %+v", fieldEntry)
	}
	if len(rep.Burn) == 0 {
		t.Error("no burn rates with SLOs configured")
	}
	if len(rep.Timeline) == 0 {
		t.Error("no timeline slots")
	}

	// The same drift lands on /metrics as voiceguard_stage_drift gauges,
	// next to the process gauges.
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricStageDrift + `{metric="field_ut",stage="loudspeaker"}`,
		MetricStageDriftKS,
		MetricSLOBurnRate + `{slo="availability",window="5m"}`,
		MetricGoHeapBytes,
		MetricGoGCPauseUS,
		MetricGoGoroutines,
		MetricAllocsPerDecision,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestDriftReportGolden pins the /debug/drift document byte for byte:
// field order and omitempty rules with a pinned baseline, series that saw
// no traffic, both SLOs and a timeline. The process samples (heap,
// goroutines, GC pause) and the wall-clock generation time vary per run
// and are masked; everything else follows the fake window clock.
func TestDriftReportGolden(t *testing.T) {
	clock := newDriftClock()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil,
		WithWindowConfig(telemetry.WindowConfig{Now: clock.Now, LatencyGoodUnder: time.Second}),
		WithSLO(0.999, 0.99, time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	w := srv.Windows()
	fieldID, ok := w.SeriesByName("loudspeaker", core.EvidenceFieldUT)
	if !ok {
		t.Fatal("field_ut series not registered")
	}
	for i := 0; i < 40; i++ {
		w.ObserveEvidence(fieldID, 0.5+0.05*float64(i%8))
		w.ObserveVerify(telemetry.OutcomeAccepted, 100*time.Millisecond)
	}
	resp, err := http.Post(ts.URL+DriftPinRoute+"?window=5m", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	clock.Advance(time.Minute)
	for i := 0; i < 20; i++ {
		w.ObserveEvidence(fieldID, 25+float64(i%10))
		w.ObserveVerify(telemetry.OutcomeRejected, 2*time.Second)
	}

	resp, err = http.Get(ts.URL + DriftRoute + "?timeline=3")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`"(generated_unix|heap_bytes|goroutines|gc_pause_total_us)":[0-9]+`).
		ReplaceAllString(string(body), `"$1":0`)
	if got != driftGolden {
		t.Errorf("/debug/drift body:\n%s\nwant:\n%s", got, driftGolden)
	}
}

const driftGolden = `{"generated_unix":0,"baseline_pinned_unix":1786179600,"baseline_window":"5m0s","live_window":"5m0s","alert_psi":0.25,"drift":[` +
	`{"stage":"distance","metric":"distance_cm","psi":0,"ks":0,"alert":false,"live_count":0,"baseline_count":0},` +
	`{"stage":"soundfield","metric":"svm_margin","psi":0,"ks":0,"alert":false,"live_count":0,"baseline_count":0},` +
	`{"stage":"loudspeaker","metric":"field_ut","psi":1.129941586108319,"ks":0.33333333333333326,"alert":true,"live_count":60,"baseline_count":40,"live_mean":10.283333333333333,"baseline_mean":0.6750000000000002},` +
	`{"stage":"loudspeaker","metric":"beta_ut_per_s","psi":0,"ks":0,"alert":false,"live_count":0,"baseline_count":0},` +
	`{"stage":"identity","metric":"llr","psi":0,"ks":0,"alert":false,"live_count":0,"baseline_count":0}],"burn":[` +
	`{"slo":"availability","window":"5m","burn":0,"bad_ratio":0,"total":60},` +
	`{"slo":"latency","window":"5m","burn":33.3333333333333,"bad_ratio":0.3333333333333333,"total":60},` +
	`{"slo":"availability","window":"1h","burn":0,"bad_ratio":0,"total":60},` +
	`{"slo":"latency","window":"1h","burn":33.3333333333333,"bad_ratio":0.3333333333333333,"total":60},` +
	`{"slo":"availability","window":"6h","burn":0,"bad_ratio":0,"total":60},` +
	`{"slo":"latency","window":"6h","burn":33.3333333333333,"bad_ratio":0.3333333333333333,"total":60}],"resources":{"heap_bytes":0,"goroutines":0,"gc_pause_total_us":0,"samples":1},` +
	`"timeline":[` +
	`{"unix":1786179600,"accepted":40,"rejected":0,"latency_mean_us":100000,"series":[` +
	`{"stage":"distance","metric":"distance_cm","count":0},` +
	`{"stage":"soundfield","metric":"svm_margin","count":0},` +
	`{"stage":"loudspeaker","metric":"field_ut","count":40,"mean":0.6750000000000002},` +
	`{"stage":"loudspeaker","metric":"beta_ut_per_s","count":0},` +
	`{"stage":"identity","metric":"llr","count":0}]},` +
	`{"unix":1786179660,"accepted":0,"rejected":20,"latency_mean_us":2000000,"heap_bytes":0,"goroutines":0,"series":[` +
	`{"stage":"distance","metric":"distance_cm","count":0},` +
	`{"stage":"soundfield","metric":"svm_margin","count":0},` +
	`{"stage":"loudspeaker","metric":"field_ut","count":20,"mean":29.5},` +
	`{"stage":"loudspeaker","metric":"beta_ut_per_s","count":0},` +
	`{"stage":"identity","metric":"llr","count":0}]}]}` + "\n"

func TestDriftEndpointDisabled(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil, WithDriftEndpoint(false))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + DriftRoute)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled drift endpoint returned %d, want 404", resp.StatusCode)
	}
	// Windows are still fed with the surface off.
	if srv.Windows() == nil {
		t.Error("window set missing with drift endpoint disabled")
	}
}

func TestDriftPinValidation(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + DriftPinRoute)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET pin returned %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+DriftPinRoute+"?window=bogus", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window returned %d, want 400", resp.StatusCode)
	}
}

func TestVerifyFeedsEvidenceWindows(t *testing.T) {
	srv, ts := testServer(t)
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(7)))
	session, err := attack.Genuine(victim, attack.Scenario{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.New(ts.URL).Verify(session); err != nil {
		t.Fatal(err)
	}
	w := srv.Windows()
	outcomes, _, latTotal, _ := w.OutcomeTotals(5 * time.Minute)
	if outcomes[telemetry.OutcomeAccepted]+outcomes[telemetry.OutcomeRejected] != 1 {
		t.Errorf("decision outcomes = %v, want exactly one decided verify", outcomes)
	}
	if latTotal != 1 {
		t.Errorf("latency count = %d, want 1", latTotal)
	}
	// The cascade's executed stages must have deposited evidence.
	var total int64
	for i := range w.Defs() {
		total += w.SeriesDist(telemetry.SeriesID(i), 5*time.Minute).Total
	}
	if total == 0 {
		t.Error("no evidence values landed in the rolling windows")
	}
}

func TestObserveDecisionAllocationFree(t *testing.T) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Decision{
		Accepted: true,
		Stages: []core.StageResult{
			{
				Stage: core.StageLoudspeaker,
				Evidence: [2]core.EvidenceValue{
					{Metric: core.EvidenceFieldUT, Value: 1.5},
					{Metric: core.EvidenceBetaUTPerS, Value: 30},
				},
			},
			{
				Stage:    core.StageSpeakerID,
				Evidence: [2]core.EvidenceValue{{Metric: core.EvidenceLLR, Value: 0.4}},
			},
		},
	}
	allocs := testing.AllocsPerRun(200, func() {
		srv.windows.ObserveVerify(telemetry.OutcomeAccepted, 100*time.Millisecond)
		srv.observer.ObserveDecision(&d)
	})
	if allocs != 0 {
		t.Errorf("window feed allocates %v per decision, want 0", allocs)
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s returned %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
