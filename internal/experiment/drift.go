package experiment

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// DriftWaveSeries summarizes one evidence series across the two live
// waves: how far the genuine control wave and the attack wave each moved
// from the pinned genuine baseline.
type DriftWaveSeries struct {
	Stage  string `json:"stage"`
	Metric string `json:"metric"`
	// PSI/KS are dimensionless divergence statistics vs the baseline.
	GenuinePSI float64 `json:"genuine_psi"` // unit: dimensionless
	GenuineKS  float64 `json:"genuine_ks"`  // unit: dimensionless
	AttackPSI  float64 `json:"attack_psi"`  // unit: dimensionless
	AttackKS   float64 `json:"attack_ks"`   // unit: dimensionless
}

// String implements fmt.Stringer.
func (r DriftWaveSeries) String() string {
	return fmt.Sprintf("%-12s %-14s genuine PSI %.3f KS %.3f | attack PSI %.3f KS %.3f",
		r.Stage, r.Metric, r.GenuinePSI, r.GenuineKS, r.AttackPSI, r.AttackKS)
}

// DriftWaveResult is the outcome of RunDriftWave.
type DriftWaveResult struct {
	// AlertPSI is the alerting threshold the waves are judged against.
	AlertPSI float64 // unit: dimensionless
	Series   []DriftWaveSeries
	// GenuineAlertStages / AttackAlertStages are the distinct stages with
	// at least one series whose PSI exceeded AlertPSI during that wave.
	GenuineAlertStages []string
	AttackAlertStages  []string
	// Baseline/GenuineWave/AttackWave count the verifies in each phase.
	Baseline    int
	GenuineWave int
	AttackWave  int
}

// driftWaveSessions is the per-phase session count. At the simulated
// arrival spacing each phase spans ~4 minutes of window time, inside the
// 5-minute live window the drift scores read.
const driftWaveSessions = 40

// driftArrivalSpacing is the simulated inter-verify arrival gap.
const driftArrivalSpacing = 6 * time.Second

// RunDriftWave replays the attack matrix as a time-ordered traffic story
// against the rolling evidence windows: a genuine baseline is served and
// pinned, a second genuine wave measures the false-alarm floor, then a
// mixed replay+imitation wave measures how hard the per-stage evidence
// distributions move. It reproduces, end to end, the monitoring claim of
// the observability layer — population-level drift exposes an attack
// campaign even though every individual verify already returned.
func RunDriftWave(seed int64) (*DriftWaveResult, error) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiment: drift system: %w", err)
	}
	verifier, victim, err := driftVerifier(seed)
	if err != nil {
		return nil, err
	}
	sys.AttachIdentity(verifier)

	// Deterministic simulated clock: every verify arrives a fixed gap
	// after the previous one, so window placement — and therefore the
	// drift scores — are exactly reproducible.
	var clockNS atomic.Int64
	clockNS.Store(time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC).UnixNano())
	windows := telemetry.NewWindowSet(telemetry.WindowConfig{
		Now: func() time.Time { return time.Unix(0, clockNS.Load()) },
	}, core.EvidenceSeriesDefs())
	observer := core.NewEvidenceObserver(windows)

	serve := func(session *core.SessionData) error {
		d, err := sys.Verify(session)
		if err != nil {
			return err
		}
		observer.ObserveDecision(&d)
		outcome := telemetry.OutcomeRejected
		if d.Accepted {
			outcome = telemetry.OutcomeAccepted
		}
		windows.ObserveVerify(outcome, d.Elapsed)
		clockNS.Add(int64(driftArrivalSpacing))
		return nil
	}
	genuineAt := func(i int) (*core.SessionData, error) {
		return attack.Genuine(victim, attack.Scenario{Seed: seed + int64(i)})
	}

	// Phase 1 — baseline: genuine traffic only, then pin it.
	for i := 0; i < driftWaveSessions; i++ {
		s, err := genuineAt(i)
		if err != nil {
			return nil, fmt.Errorf("experiment: drift baseline session %d: %w", i, err)
		}
		if err := serve(s); err != nil {
			return nil, fmt.Errorf("experiment: drift baseline verify %d: %w", i, err)
		}
	}
	windows.PinBaseline(windows.LiveWindow())

	// Phase 2 — genuine control wave, after the live window drains of
	// baseline traffic. Same victim, fresh seeds: its drift vs the
	// baseline is the false-alarm floor.
	clockNS.Add(int64(windows.LiveWindow() + time.Minute))
	for i := 0; i < driftWaveSessions; i++ {
		s, err := genuineAt(1000 + i)
		if err != nil {
			return nil, fmt.Errorf("experiment: drift control session %d: %w", i, err)
		}
		if err := serve(s); err != nil {
			return nil, fmt.Errorf("experiment: drift control verify %d: %w", i, err)
		}
	}
	genuineDrift := windows.Drift()

	// Phase 3 — attack wave: alternating close-range loudspeaker replays
	// (caught by the sound-field check, shifting its margin evidence) and
	// practiced human imitations (caught by ASV, shifting the LLR
	// evidence). The cascade truncates each decision at its first failing
	// stage, so each attack type contaminates exactly the evidence its
	// own detection path produces.
	rec, err := attack.Record(victim, DefaultPassphrase, seed+7)
	if err != nil {
		return nil, fmt.Errorf("experiment: drift recording: %w", err)
	}
	speakers := device.Catalog()
	imposters := speech.NewDistinctRoster(3, seed+9, 1.2).Profiles()
	clockNS.Add(int64(windows.LiveWindow() + time.Minute))
	for i := 0; i < driftWaveSessions; i++ {
		var s *core.SessionData
		sc := attack.Scenario{Seed: seed + 2000 + int64(i), Distance: 0.05}
		if i%2 == 0 {
			s, err = attack.Replay(rec, speakers[(i/2)%len(speakers)], sc)
		} else {
			s, err = attack.Imitation(imposters[i%len(imposters)], victim, speech.ImitatorPracticed, sc)
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: drift attack session %d: %w", i, err)
		}
		if err := serve(s); err != nil {
			return nil, fmt.Errorf("experiment: drift attack verify %d: %w", i, err)
		}
	}
	attackDrift := windows.Drift()

	res := &DriftWaveResult{
		AlertPSI:    telemetry.PSIActionAbove,
		Baseline:    driftWaveSessions,
		GenuineWave: driftWaveSessions,
		AttackWave:  driftWaveSessions,
	}
	genuineStages := map[string]bool{}
	attackStages := map[string]bool{}
	for i := range genuineDrift {
		g, a := genuineDrift[i], attackDrift[i]
		res.Series = append(res.Series, DriftWaveSeries{
			Stage:      g.Stage,
			Metric:     g.Metric,
			GenuinePSI: g.PSI,
			GenuineKS:  g.KS,
			AttackPSI:  a.PSI,
			AttackKS:   a.KS,
		})
		if g.PSI > res.AlertPSI && !genuineStages[g.Stage] {
			genuineStages[g.Stage] = true
			res.GenuineAlertStages = append(res.GenuineAlertStages, g.Stage)
		}
		if a.PSI > res.AlertPSI && !attackStages[a.Stage] {
			attackStages[a.Stage] = true
			res.AttackAlertStages = append(res.AttackAlertStages, a.Stage)
		}
	}
	return res, nil
}

// driftVerifier trains a compact GMM-UBM back-end and enrolls the wave's
// victim, calibrated at the paper's zero-FRR operating point so genuine
// waves decide accept and imitation waves decide reject.
func driftVerifier(seed int64) (*core.SpeakerVerifier, speech.Profile, error) {
	rng := rand.New(rand.NewSource(seed + 41))
	bg, err := corpusSessions(speech.NewRoster(6, seed+1))
	if err != nil {
		return nil, speech.Profile{}, fmt.Errorf("experiment: drift background: %w", err)
	}
	verifier, err := core.TrainSpeakerVerifier(bg, core.SpeakerVerifierConfig{
		Backend:    core.BackendGMMUBM,
		Components: 16,
		Seed:       seed,
	})
	if err != nil {
		return nil, speech.Profile{}, fmt.Errorf("experiment: drift training: %w", err)
	}
	victim := speech.RandomProfile("victim", rng)
	enroll, err := renderSessions(victim, DefaultPassphrase, 2, 3, rng)
	if err != nil {
		return nil, speech.Profile{}, fmt.Errorf("experiment: drift enrollment: %w", err)
	}
	if err := verifier.Enroll(victim.Name, enroll); err != nil {
		return nil, speech.Profile{}, fmt.Errorf("experiment: drift enroll: %w", err)
	}
	held, err := renderSessions(victim, DefaultPassphrase, 1, 4, rng)
	if err != nil {
		return nil, speech.Profile{}, fmt.Errorf("experiment: drift calibration: %w", err)
	}
	if err := verifier.CalibrateThreshold(victim.Name, held[0], 0.05); err != nil {
		return nil, speech.Profile{}, fmt.Errorf("experiment: drift calibrate: %w", err)
	}
	return verifier, victim, nil
}
