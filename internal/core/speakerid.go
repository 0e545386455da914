package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"voiceguard/internal/audio"
	"voiceguard/internal/features"
	"voiceguard/internal/gmm"
	"voiceguard/internal/stats"
	"voiceguard/internal/telemetry"
)

// Backend selects the ASV scoring model, mirroring the paper's choice of
// the Spear toolbox's GMM and ISV toolchains (Table I).
type Backend int

// Supported ASV back-ends.
const (
	BackendGMMUBM Backend = iota + 1
	BackendISV
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendGMMUBM:
		return "gmm-ubm"
	case BackendISV:
		return "isv"
	default:
		return "unknown"
	}
}

// SpeakerVerifier implements stage 4 (§IV-C): classical text-dependent
// speaker verification over MFCC features.
type SpeakerVerifier struct {
	backend   Backend
	mfcc      features.MFCCConfig
	ubm       *gmm.GMM
	isv       *gmm.ISV
	relevance float64
	// Threshold is the accept threshold on the back-end score (a
	// log-likelihood ratio for both back-ends). Set it directly or via
	// CalibrateThreshold.
	Threshold float64 // unit: score

	// usersMu guards users and isvUsers: the server enrolls while
	// other requests verify.
	usersMu  sync.RWMutex
	users    map[string]enrollment
	isvUsers map[string]*gmm.ISVSpeaker
}

// enrollment is one GMM-UBM user: the MAP-adapted verifier and the
// content digest of its speaker model. The digest is computed once,
// when the model is made, and travels with it, so the "asv/user/<name>"
// entry of ModelDigests always names the model Score uses — a
// re-enrollment replaces both at once.
type enrollment struct {
	ver    *gmm.Verifier
	digest string
}

// newEnrollment digests ver's speaker model.
func newEnrollment(user string, ver *gmm.Verifier) (enrollment, error) {
	dig, err := gmm.ModelDigest(ver.Speaker)
	if err != nil {
		return enrollment{}, fmt.Errorf("core: digesting speaker model %q: %w", user, err)
	}
	return enrollment{ver: ver, digest: dig}, nil
}

// SpeakerVerifierConfig configures training.
type SpeakerVerifierConfig struct {
	// Backend selects GMM-UBM or ISV (default GMM-UBM).
	Backend Backend
	// Components is the UBM size (default 32).
	Components int
	// Relevance is the MAP relevance factor (default 4, Spear's choice
	// for small enrollment sets).
	Relevance float64 // unit: dimensionless
	// ISVRank is the session-subspace rank for the ISV back-end
	// (default 10).
	ISVRank int
	// MFCC overrides the feature front-end; the zero value selects
	// features.DefaultMFCCConfig with CMVN disabled. Text-dependent
	// verification of one short passphrase keeps the speaker's static
	// spectral identity in the cepstral mean, which per-utterance CMVN
	// would erase; session variability is instead handled by the model
	// (MAP prior, ISV subspace).
	MFCC *features.MFCCConfig
	// Seed seeds UBM training.
	Seed int64
}

func (c *SpeakerVerifierConfig) setDefaults() {
	if c.Backend == 0 {
		c.Backend = BackendGMMUBM
	}
	if c.Components == 0 {
		c.Components = 32
	}
	if stats.IsZero(c.Relevance) {
		c.Relevance = 4
	}
	if c.ISVRank == 0 {
		c.ISVRank = 10
	}
	if c.MFCC == nil {
		mfcc := features.DefaultMFCCConfig()
		mfcc.CMVN = false
		c.MFCC = &mfcc
	}
}

// ErrUnknownUser is returned when verifying an identity that was never
// enrolled.
var ErrUnknownUser = errors.New("core: unknown user")

// extract runs the MFCC front-end over an utterance.
func (v *SpeakerVerifier) extract(s *audio.Signal) ([][]float64, error) {
	return features.Extract(s, v.mfcc)
}

// TrainSpeakerVerifier builds the back-end from background (non-user)
// speech. background maps speaker → sessions → utterances; it trains the
// UBM and, for the ISV back-end, the session subspace.
func TrainSpeakerVerifier(background map[string][][]*audio.Signal, cfg SpeakerVerifierConfig) (*SpeakerVerifier, error) {
	cfg.setDefaults()
	v := &SpeakerVerifier{
		backend:   cfg.Backend,
		mfcc:      *cfg.MFCC,
		relevance: cfg.Relevance,
		users:     make(map[string]enrollment),
		isvUsers:  make(map[string]*gmm.ISVSpeaker),
	}
	// Iterate speakers in sorted order: map order would otherwise make
	// the pooled frame order — and therefore the k-means initialization
	// and the trained UBM — nondeterministic across runs.
	names := make([]string, 0, len(background))
	for spk := range background {
		names = append(names, spk)
	}
	sort.Strings(names)
	var pooled [][]float64
	sessions := make(map[string][][][]float64)
	for _, spk := range names {
		for _, sess := range background[spk] {
			var sessFrames [][]float64
			for _, utt := range sess {
				f, err := v.extract(utt)
				if err != nil {
					return nil, fmt.Errorf("core: extracting background features for %s: %w", spk, err)
				}
				pooled = append(pooled, f...)
				sessFrames = append(sessFrames, f...)
			}
			if len(sessFrames) > 0 {
				sessions[spk] = append(sessions[spk], sessFrames)
			}
		}
	}
	if len(pooled) == 0 {
		return nil, errors.New("core: no background speech for ASV training")
	}
	ubm, err := gmm.TrainUBM(pooled, gmm.TrainConfig{Components: cfg.Components, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: training UBM: %w", err)
	}
	v.ubm = ubm
	if cfg.Backend == BackendISV {
		isv, err := gmm.TrainISV(ubm, sessions, gmm.ISVConfig{Rank: cfg.ISVRank, Relevance: cfg.Relevance})
		if err != nil {
			return nil, fmt.Errorf("core: training ISV: %w", err)
		}
		v.isv = isv
	}
	return v, nil
}

// Enroll registers a user from enrollment utterances (grouped by session
// for the ISV back-end; a flat list may be passed as one session). It is
// BuildEnrollment followed by Register.
func (v *SpeakerVerifier) Enroll(user string, sessions [][]*audio.Signal) error {
	m, err := v.BuildEnrollment(user, sessions)
	if err != nil {
		return err
	}
	v.Register(m)
	return nil
}

// UserModel is one user's enrollment model, built but not yet
// registered.
type UserModel struct {
	user string
	gmm  enrollment
	isv  *gmm.ISVSpeaker
}

// BuildEnrollment builds a user's model from enrollment utterances as
// Enroll does, without registering it. It only reads the trained
// back-end, so several builds may run at once; Register makes a model
// live.
func (v *SpeakerVerifier) BuildEnrollment(user string, sessions [][]*audio.Signal) (*UserModel, error) {
	if user == "" {
		return nil, errors.New("core: empty user name")
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no enrollment sessions for %q", user)
	}
	var all [][]float64
	var perSession [][][]float64
	for _, sess := range sessions {
		var sessFrames [][]float64
		for _, utt := range sess {
			f, err := v.extract(utt)
			if err != nil {
				return nil, fmt.Errorf("core: extracting enrollment features for %q: %w", user, err)
			}
			all = append(all, f...)
			sessFrames = append(sessFrames, f...)
		}
		if len(sessFrames) > 0 {
			perSession = append(perSession, sessFrames)
		}
	}
	m := &UserModel{user: user}
	switch v.backend {
	case BackendISV:
		spk, err := v.isv.Enroll(perSession)
		if err != nil {
			return nil, fmt.Errorf("core: ISV enrollment for %q: %w", user, err)
		}
		m.isv = spk
	default:
		ver, err := gmm.NewVerifier(v.ubm, all, v.relevance)
		if err != nil {
			return nil, fmt.Errorf("core: GMM enrollment for %q: %w", user, err)
		}
		if m.gmm, err = newEnrollment(user, ver); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ErrUserEnrolled is RegisterNew's refusal to replace a user's model.
var ErrUserEnrolled = errors.New("core: user already enrolled")

// Register makes a built model its user's live enrollment, replacing
// any earlier one.
func (v *SpeakerVerifier) Register(m *UserModel) { _ = v.register(m, true) }

// RegisterNew is Register for a new user only: the check and the
// registration are one step, so of two racing registrations one wins.
func (v *SpeakerVerifier) RegisterNew(m *UserModel) error { return v.register(m, false) }

func (v *SpeakerVerifier) register(m *UserModel, replace bool) error {
	v.usersMu.Lock()
	defer v.usersMu.Unlock()
	_, gmmOK := v.users[m.user]
	if _, isvOK := v.isvUsers[m.user]; !replace && (gmmOK || isvOK) {
		return fmt.Errorf("%w: %q", ErrUserEnrolled, m.user)
	}
	if m.isv != nil {
		v.isvUsers[m.user] = m.isv
		return nil
	}
	v.users[m.user] = m.gmm
	return nil
}

// Score returns the back-end score of an utterance against a user.
func (v *SpeakerVerifier) Score(user string, utt *audio.Signal) (float64, error) {
	return v.ScoreSpan(nil, user, utt)
}

// ScoreSpan is Score recording the two expensive sub-operations under
// span (nil disables tracing at zero cost): an "mfcc-extract" child
// around the feature front-end and a "gmm-score" child around back-end
// scoring, each carrying its own shape and fan-out children. The caller
// owns span's End.
func (v *SpeakerVerifier) ScoreSpan(span *telemetry.Span, user string, utt *audio.Signal) (float64, error) {
	ex := span.StartSpan("mfcc-extract")
	frames, err := features.ExtractSpan(ex, utt, v.mfcc)
	ex.End()
	if err != nil {
		return 0, fmt.Errorf("core: extracting test features: %w", err)
	}
	sc := span.StartSpan("gmm-score")
	defer sc.End()
	switch v.backend {
	case BackendISV:
		v.usersMu.RLock()
		spk, ok := v.isvUsers[user]
		v.usersMu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownUser, user)
		}
		return spk.ScoreSpan(sc, frames)
	default:
		v.usersMu.RLock()
		e, ok := v.users[user]
		v.usersMu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownUser, user)
		}
		return e.ver.ScoreSpan(sc, frames), nil
	}
}

// Verify runs the identity check as a pipeline stage.
func (v *SpeakerVerifier) Verify(user string, utt *audio.Signal) (res StageResult) {
	return v.VerifySpan(nil, user, utt)
}

// VerifySpan is Verify attaching its decision evidence to span (nil
// disables tracing at zero cost): the log-likelihood-ratio score, the
// live accept threshold, and the back-end name, plus the ScoreSpan
// sub-operation children. The caller owns span's End.
func (v *SpeakerVerifier) VerifySpan(span *telemetry.Span, user string, utt *audio.Signal) (res StageResult) {
	defer TimeStage(&res)()
	res.Stage = StageSpeakerID
	span.SetString("backend", v.backend.String())
	span.SetFloat("threshold_llr", v.Threshold, "nat/frame")
	score, err := v.ScoreSpan(span, user, utt)
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	span.SetFloat("llr", score, "nat/frame")
	res.Evidence[0] = EvidenceValue{Metric: EvidenceLLR, Value: score}
	res.Score = score - v.Threshold
	if score >= v.Threshold {
		res.Pass = true
		res.Detail = fmt.Sprintf("speaker accepted (score %.3f ≥ %.3f)", score, v.Threshold)
	} else {
		res.Detail = fmt.Sprintf("speaker rejected (score %.3f < %.3f)", score, v.Threshold)
	}
	return res
}

// Backend returns the configured back-end.
func (v *SpeakerVerifier) Backend() Backend { return v.backend }

// CalibrateThreshold sets the accept threshold from held-out genuine
// utterances of an enrolled user: the minimum genuine score minus the
// safety margin, i.e. the paper's zero-FRR operating point. Margin > 0
// trades FAR headroom for robustness to genuine-score variation.
// unit: margin score
func (v *SpeakerVerifier) CalibrateThreshold(user string, genuine []*audio.Signal, margin float64) error {
	if len(genuine) == 0 {
		return fmt.Errorf("core: calibration needs genuine utterances for %q", user)
	}
	minScore := math.Inf(1)
	for i, utt := range genuine {
		s, err := v.Score(user, utt)
		if err != nil {
			return fmt.Errorf("core: calibration utterance %d: %w", i, err)
		}
		if s < minScore {
			minScore = s
		}
	}
	v.Threshold = minScore - margin
	return nil
}
