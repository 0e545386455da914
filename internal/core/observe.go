package core

import (
	"voiceguard/internal/telemetry"
)

// Evidence metric names — the per-stage statistics the rolling windows
// and drift scores track. They match the span attribute names each
// VerifySpan already records, so dashboards and traces agree on naming.
const (
	// EvidenceDistanceCM is stage 1's estimated source distance, cm.
	EvidenceDistanceCM = "distance_cm"
	// EvidenceSVMMargin is stage 2's SVM decision margin.
	EvidenceSVMMargin = "svm_margin"
	// EvidenceFieldUT is stage 3's magnetic magnitude swing, µT.
	EvidenceFieldUT = "field_ut"
	// EvidenceBetaUTPerS is stage 3's maximum field change rate, µT/s.
	EvidenceBetaUTPerS = "beta_ut_per_s"
	// EvidenceLLR is stage 4's log-likelihood ratio, nat/frame.
	EvidenceLLR = "llr"
)

// EvidenceSeriesDefs returns the canonical evidence series the rolling
// windows capture, one per (stage, metric) pair, with fixed bin edges
// spanning both the genuine operating region and the attack regimes so
// a distribution shift between them moves mass across bins (what PSI/KS
// react to). Deterministic edges keep drift scores reproducible.
func EvidenceSeriesDefs() []telemetry.SeriesDef {
	return []telemetry.SeriesDef{
		{
			Stage:  StageDistance.MetricName(),
			Metric: EvidenceDistanceCM,
			// Genuine sweeps sit within Dt (≈6–7.5 cm); loudspeaker replays
			// estimate tens of cm to meters.
			Edges: []float64{2, 4, 6, 8, 10, 15, 25, 50, 100, 200},
		},
		{
			Stage:  StageSoundField.MetricName(),
			Metric: EvidenceSVMMargin,
			// Mouth-like sweeps score positive margins, machines negative.
			Edges: []float64{-2, -1, -0.5, -0.2, 0, 0.2, 0.5, 1, 2, 4},
		},
		{
			Stage:  StageLoudspeaker.MetricName(),
			Metric: EvidenceFieldUT,
			// Ambient swing is a few µT; a nearby speaker magnet swings
			// tens of µT (Mt = 10 µT at the paper's operating point).
			Edges: []float64{0.5, 1, 2, 4, 8, 12, 20, 40, 80},
		},
		{
			Stage:  StageLoudspeaker.MetricName(),
			Metric: EvidenceBetaUTPerS,
			// βt = 150 µT/s at the paper's operating point.
			Edges: []float64{5, 10, 25, 50, 100, 150, 250, 500},
		},
		{
			Stage:  StageSpeakerID.MetricName(),
			Metric: EvidenceLLR,
			// Genuine per-frame LLRs land above the calibrated threshold,
			// imitators below; both within a few nats of zero.
			Edges: []float64{-3, -2, -1.5, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 1.5, 2, 3},
		},
	}
}

// evidenceKey addresses one registered series without allocating.
type evidenceKey struct{ stage, metric string }

// EvidenceObserver feeds decision evidence into a WindowSet. Binding the
// (stage, metric) → series resolution once at construction keeps the
// per-decision path to map lookups and atomic adds — no allocations.
type EvidenceObserver struct {
	windows *telemetry.WindowSet
	ids     map[evidenceKey]telemetry.SeriesID
}

// NewEvidenceObserver binds a window set whose series were registered
// from EvidenceSeriesDefs (or any subset sharing its naming).
func NewEvidenceObserver(w *telemetry.WindowSet) *EvidenceObserver {
	o := &EvidenceObserver{windows: w, ids: make(map[evidenceKey]telemetry.SeriesID)}
	for i, d := range w.Defs() {
		o.ids[evidenceKey{stage: d.Stage, metric: d.Metric}] = telemetry.SeriesID(i)
	}
	return o
}

// ObserveDecision records every evidence value carried by the decision's
// executed stages into the rolling windows. Nil-receiver safe; stages
// that recorded no evidence (validation failures, abandoned stages)
// contribute nothing.
func (o *EvidenceObserver) ObserveDecision(d *Decision) {
	if o == nil || d == nil {
		return
	}
	for si := range d.Stages {
		res := &d.Stages[si]
		stage := res.Stage.MetricName()
		for ei := range res.Evidence {
			ev := &res.Evidence[ei]
			if ev.Metric == "" {
				continue
			}
			if id, ok := o.ids[evidenceKey{stage: stage, metric: ev.Metric}]; ok {
				o.windows.ObserveEvidence(id, ev.Value)
			}
		}
	}
}
