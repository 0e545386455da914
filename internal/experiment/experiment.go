// Package experiment reproduces the paper's evaluation (§VI): each
// exported Run* function regenerates the data behind one table or figure,
// returning printable rows. The bench harness (bench_test.go) and the
// cmd/benchgen tool are thin wrappers over this package.
package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"voiceguard/internal/attack"
	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/geometry"
	"voiceguard/internal/magnetics"
	"voiceguard/internal/sensors"
	"voiceguard/internal/speech"
	"voiceguard/internal/stats"
)

// machineSystem builds the anti-spoofing subsystem under test for the
// distance/environment sweeps: sound-field verification + loudspeaker
// detection. The distance gate is deliberately excluded — these sweeps
// *measure* performance as a function of the true source distance, which
// is how the paper derived Dt = 6 cm in the first place.
func machineSystem(seed int64) (*core.System, error) {
	return core.BuildSystem(core.SystemConfig{
		FieldSeed:       seed,
		DisableDistance: true,
	})
}

// sessionScore reduces a decision to a single continuous statistic for
// EER computation: the minimum stage score (all stages must clear zero
// for acceptance, so shifting a global threshold on this score sweeps the
// operating point of the whole cascade).
func sessionScore(d core.Decision) float64 {
	score := math.Inf(1)
	for _, st := range d.Stages {
		if st.Score < score {
			score = st.Score
		}
	}
	if math.IsInf(score, 1) {
		return 0
	}
	return score
}

// runTrial scores one session against a system, returning the continuous
// score and the binary accept verdict at the paper's operating point.
func runTrial(sys *core.System, s *core.SessionData) (float64, bool, error) {
	d, err := sys.Verify(s)
	if err != nil {
		return 0, false, err
	}
	return sessionScore(d), d.Accepted, nil
}

// Rates summarizes one experimental cell.
type Rates struct {
	// FAR, FRR and EER are percentages in [0, 100].
	FAR, FRR, EER float64
}

// String implements fmt.Stringer.
func (r Rates) String() string {
	return fmt.Sprintf("FAR %.1f%%  FRR %.1f%%  EER %.1f%%", r.FAR, r.FRR, r.EER)
}

// ratesFrom computes the cell summary: FAR/FRR from the binary verdicts
// at the operating point, EER from the continuous score sweep.
func ratesFrom(scores *stats.ScoreSet, genuineAccepts, genuineTotal, attackAccepts, attackTotal int) Rates {
	var r Rates
	if attackTotal > 0 {
		r.FAR = 100 * float64(attackAccepts) / float64(attackTotal)
	}
	if genuineTotal > 0 {
		r.FRR = 100 * float64(genuineTotal-genuineAccepts) / float64(genuineTotal)
	}
	eer, _ := scores.EER()
	r.EER = 100 * eer
	return r
}

// victimRoster returns the paper's five-speaker test panel.
func victimRoster(seed int64) []speech.Profile {
	roster := speech.NewRoster(5, seed)
	return roster.Profiles()
}

// recordingsFor captures one replayable recording per victim.
func recordingsFor(victims []speech.Profile, passphrase string, seed int64) (map[string]*recording, error) {
	out := make(map[string]*recording, len(victims))
	for i, v := range victims {
		rec, err := attack.Record(v, passphrase, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("experiment: recording %s: %w", v.Name, err)
		}
		out[v.Name] = &recording{victim: v, audio: rec}
	}
	return out, nil
}

type recording struct {
	victim speech.Profile
	audio  *audio.Signal
}

// DefaultPassphrase is the digit phrase used across experiments.
const DefaultPassphrase = "472913"

// newScoreSet returns an empty score set (helper keeping battery.go free
// of a direct stats import).
func newScoreSet() *stats.ScoreSet { return &stats.ScoreSet{} }

// AmbientTrace records two seconds of the ambient magnetic environment
// with the phone held still — the calibration input of the §VII adaptive
// thresholding procedure.
func AmbientTrace(kind magnetics.EnvironmentKind, seed int64) (*sensors.Trace, error) {
	scene := magnetics.NewEnvironment(kind, seed)
	rng := rand.New(rand.NewSource(seed))
	magSensor := sensors.New(sensors.AK8975(), rng)
	tr, err := magSensor.Record(2, func(t float64) geometry.Vec3 {
		return scene.FieldAt(geometry.Vec3{X: 0.02, Y: 0.01}, t)
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: recording ambient trace: %w", err)
	}
	return tr, nil
}

// SpeakerSubset picks every stride-th loudspeaker from the catalog to
// bound experiment runtime while keeping class diversity.
func SpeakerSubset(stride int) []device.Loudspeaker {
	if stride < 1 {
		stride = 1
	}
	cat := device.Catalog()
	var out []device.Loudspeaker
	for i := 0; i < len(cat); i += stride {
		out = append(out, cat[i])
	}
	return out
}
