// Package rebuild reconstructs a verification pipeline from an evidence
// pack's provenance and replays the pack's sessions through it. Every
// training and enrollment path in the tree is seed-deterministic and the
// cascade's parallel fan-out is bit-identical at any worker count, so a
// system rebuilt from the same recipe digests to the same models and
// reproduces the same verdicts bit-for-bit — which is exactly what
// Replay asserts, turning an exported production incident into an
// offline regression test.
//
// The same construction path is shared by cmd/voiceguard-server,
// cmd/voiceguard-trace's demo/pack subcommands and the e2e tests, so a
// pack's provenance is the recipe the producer actually ran, not a
// parallel reimplementation that could drift.
package rebuild

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/evidence"
	"voiceguard/internal/parallel"
	"voiceguard/internal/protocol"
	"voiceguard/internal/speech"
)

// Profile derives a user's synthetic voice profile from an enrollment
// seed: the first draws of a fresh seeded source, matching Synthesizer's
// consumption of the same source during enrollment.
func Profile(user string, seed int64) speech.Profile {
	return speech.RandomProfile(user, rand.New(rand.NewSource(seed)))
}

// TrainASV trains the speaker-verification back-end from its provenance
// recipe and enrolls every listed user. A nil recipe returns nil (the
// identity stage was disabled). A recipe with fast_top_c > 0 is refused:
// its producer scored through a top-C shortlist, and this build has only
// the exact scorer, whose LLR bits cannot match that pack's.
func TrainASV(p *evidence.ASVProvenance) (*core.SpeakerVerifier, error) {
	if p == nil {
		return nil, nil
	}
	if p.FastTopC > 0 {
		return nil, fmt.Errorf("rebuild: asv.fast_top_c = %d: the producer scored through a top-C shortlist, and this build has no shortlist scorer, so its LLRs cannot be reproduced", p.FastTopC)
	}
	roster := speech.NewRoster(p.Roster, p.Seed+100)
	utts, err := roster.Generate(speech.CorpusConfig{
		Sessions:             p.Sessions,
		UtterancesPerSession: p.Utterances,
		Digits:               p.Digits,
	})
	if err != nil {
		return nil, fmt.Errorf("rebuild: generating background corpus: %w", err)
	}
	verifier, err := core.TrainSpeakerVerifier(speech.BySpeakerSession(utts), core.SpeakerVerifierConfig{Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("rebuild: training ASV: %w", err)
	}
	// Each entry draws from its own seeded source, so the models build
	// in parallel; they register in recipe order, so a user named twice
	// keeps the later entry, and the first failing entry's error is the
	// one returned, as from a serial enrollment loop.
	models := make([]*core.UserModel, len(p.Enroll))
	errs := make([]error, len(p.Enroll))
	parallel.For(len(p.Enroll), func(i int) {
		models[i], errs[i] = buildEnrollment(verifier, p.Enroll[i])
	})
	for i, m := range models {
		if errs[i] != nil {
			return nil, errs[i]
		}
		verifier.Register(m)
	}
	return verifier, nil
}

// Enroll registers one user from an enrollment recipe: the serial form
// of one TrainASV entry.
func Enroll(v *core.SpeakerVerifier, e evidence.EnrollProvenance) error {
	m, err := buildEnrollment(v, e)
	if err != nil {
		return err
	}
	v.Register(m)
	return nil
}

// buildEnrollment synthesizes an enrollment recipe's utterances and
// builds the user's model without registering it. One seeded source
// drives both the profile draw and the synthesizer, so the recipe alone
// pins the enrollment audio bit-for-bit.
func buildEnrollment(v *core.SpeakerVerifier, e evidence.EnrollProvenance) (*core.UserModel, error) {
	if e.Utterances <= 0 {
		return nil, fmt.Errorf("rebuild: enroll recipe for %q has no utterances", e.User)
	}
	rng := rand.New(rand.NewSource(e.Seed))
	profile := speech.RandomProfile(e.User, rng)
	synth, err := speech.NewSynthesizer(profile, rng)
	if err != nil {
		return nil, fmt.Errorf("rebuild: building synthesizer for %q: %w", e.User, err)
	}
	var session []*audio.Signal
	for k := 0; k < e.Utterances; k++ {
		utt, err := synth.SayDigits(e.Passphrase)
		if err != nil {
			return nil, fmt.Errorf("rebuild: synthesizing enrollment for %q: %w", e.User, err)
		}
		session = append(session, utt)
	}
	m, err := v.BuildEnrollment(e.User, [][]*audio.Signal{session})
	if err != nil {
		return nil, fmt.Errorf("rebuild: enrolling %q: %w", e.User, err)
	}
	return m, nil
}

// System constructs the full pipeline a provenance recipe describes:
// the anti-spoofing stages from the field seed, plus the trained and
// enrolled identity stage when the recipe carries one. The identity
// stage trains first, so a recipe TrainASV refuses fails before the
// sound-field SVM trains.
func System(p evidence.Provenance) (*core.System, error) {
	verifier, err := TrainASV(p.ASV)
	if err != nil {
		return nil, err
	}
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: p.FieldSeed})
	if err != nil {
		return nil, fmt.Errorf("rebuild: building pipeline: %w", err)
	}
	if verifier != nil {
		sys.AttachIdentity(verifier)
	}
	return sys, nil
}

// ErrNoProvenance is returned when a pack carries no construction recipe.
var ErrNoProvenance = errors.New("rebuild: pack carries no provenance; cannot reconstruct the system")

// SystemFromPack rebuilds the producing system from a pack's embedded
// provenance.
func SystemFromPack(p *evidence.Pack) (*core.System, error) {
	if p.Models.Provenance == nil {
		return nil, ErrNoProvenance
	}
	return System(*p.Models.Provenance)
}

// CheckModels asserts a rebuilt system's model digests exactly match the
// pack's models.json — the gate replay runs before trusting any
// reproduced verdict. A mismatch means the rebuilt models are not the
// ones the original verdict consulted, and replay divergence would be
// meaningless.
func CheckModels(p *evidence.Pack, sys *core.System) error {
	got, err := sys.ModelDigests()
	if err != nil {
		return fmt.Errorf("rebuild: digesting rebuilt models: %w", err)
	}
	var diffs []string
	keys := make([]string, 0, len(p.Models.Digests))
	for k := range p.Models.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		gd, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: in pack but not in rebuilt system", k))
		case gd != p.Models.Digests[k]:
			diffs = append(diffs, fmt.Sprintf("%s: pack %s, rebuilt %s", k, p.Models.Digests[k], gd))
		}
	}
	for k := range got {
		if _, ok := p.Models.Digests[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: in rebuilt system but not in pack", k))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("rebuild: model digests diverge:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}

// ReplayResult is one session's replay outcome.
type ReplayResult struct {
	// TraceID is the original decision's trace ID.
	TraceID string
	// Match reports whether the replayed decision is bit-identical to
	// the packed one (verdict, failed stage, per-stage pass bits and
	// score bits).
	Match bool
	// Diffs lists every divergence when Match is false, the packed
	// decision's side first (evidence.DiffDecision).
	Diffs []string
	// Replayed is the reproduced decision in pack record form.
	Replayed evidence.DecisionRecord
}

// Replay feeds every replayable session in the pack back through sys and
// compares each reproduced decision bit-for-bit against the packed one.
// It errors on structural problems (redacted sessions, missing
// decisions, undecodable requests); verdict divergence is reported in
// the results, not as an error.
func Replay(p *evidence.Pack, sys *core.System) ([]ReplayResult, error) {
	if len(p.Sessions.Sessions) == 0 {
		return nil, errors.New("rebuild: pack carries no sessions to replay")
	}
	var out []ReplayResult
	for _, env := range p.Sessions.Sessions {
		want, ok := p.Decision(env.TraceID)
		if !ok {
			return nil, fmt.Errorf("rebuild: session %s has no packed decision", env.TraceID)
		}
		req, err := protocol.RequestFromEnvelope(env)
		if err != nil {
			return nil, fmt.Errorf("rebuild: unwrapping session %s: %w", env.TraceID, err)
		}
		session, err := protocol.ToSession(req)
		if err != nil {
			return nil, fmt.Errorf("rebuild: rebuilding session %s: %w", env.TraceID, err)
		}
		res := ReplayResult{TraceID: env.TraceID}
		if env.SessionDigest != "" {
			if got := core.SessionDigest(session); got != env.SessionDigest {
				return nil, fmt.Errorf("rebuild: session %s digest mismatch: envelope %s, rebuilt %s",
					env.TraceID, env.SessionDigest, got)
			}
		}
		decision, err := sys.Verify(session)
		if err != nil {
			return nil, fmt.Errorf("rebuild: replaying session %s: %w", env.TraceID, err)
		}
		res.Replayed = core.DecisionEvidence(decision)
		res.Diffs = evidence.DiffDecision(want, res.Replayed)
		res.Match = len(res.Diffs) == 0
		out = append(out, res)
	}
	return out, nil
}
