package telemetry

// DriftReport is the full /debug/drift JSON document, shared by the
// server (which renders it), the client (which decodes it), and
// voiceguard-top (which displays it). Keeping it here avoids a
// client→server import.
type DriftReport struct {
	// GeneratedUnix is when the report was computed (seconds).
	GeneratedUnix int64 `json:"generated_unix"`
	// BaselinePinnedUnix is when the baseline was pinned (0 = none).
	BaselinePinnedUnix int64 `json:"baseline_pinned_unix,omitempty"`
	// BaselineWindow is the baseline's lookback ("10m0s"; empty = none).
	BaselineWindow string `json:"baseline_window,omitempty"`
	// LiveWindow is the drift comparison lookback ("5m0s").
	LiveWindow string `json:"live_window"`
	// AlertPSI is the PSI threshold above which a series alerts.
	AlertPSI float64 `json:"alert_psi"` // unit: dimensionless
	// Drift holds one entry per registered evidence series.
	Drift []DriftScore `json:"drift"`
	// Burn holds the multi-window SLO burn rates (empty without SLOs).
	Burn []BurnRate `json:"burn,omitempty"`
	// Resources summarizes the live window's process samples.
	Resources ResourceUsage `json:"resources"`
	// Timeline lists the recent fine-ring slots, oldest first.
	Timeline []TimelinePoint `json:"timeline,omitempty"`
}
