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

	// fast is the compiled top-C scoring state; nil selects the exact
	// path (the default).
	fast *fastASV
}

// enrollment is one GMM-UBM user: the MAP-adapted verifier and the
// content digest of its speaker model. The digest is computed once,
// when the model is made, and travels with it, so the fast path's
// compiled-model cache key always names the model being scored — a
// verify racing a re-enrollment scores the old model or the new one,
// never the new one's key bound to the old model.
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

// FastPathConfig configures EnableFastPath.
type FastPathConfig struct {
	// TopC is the shortlist width (default gmm.DefaultShortlistC).
	TopC int
	// Cache holds compiled speaker models across requests, keyed by
	// model digest. nil builds a private metric-less cache of
	// gmm.DefaultModelCacheSize entries; the server passes one wired to
	// its telemetry registry.
	Cache *gmm.ModelCache
}

// fastASV is the compiled scoring state behind the fast path: the
// compiled UBM and the speaker-model cache.
type fastASV struct {
	topC  int
	ubm   *gmm.ScoringModel
	cache *gmm.ModelCache
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
// for the ISV back-end; a flat list may be passed as one session).
func (v *SpeakerVerifier) Enroll(user string, sessions [][]*audio.Signal) error {
	if user == "" {
		return errors.New("core: empty user name")
	}
	if len(sessions) == 0 {
		return fmt.Errorf("core: no enrollment sessions for %q", user)
	}
	var all [][]float64
	var perSession [][][]float64
	for _, sess := range sessions {
		var sessFrames [][]float64
		for _, utt := range sess {
			f, err := v.extract(utt)
			if err != nil {
				return fmt.Errorf("core: extracting enrollment features for %q: %w", user, err)
			}
			all = append(all, f...)
			sessFrames = append(sessFrames, f...)
		}
		if len(sessFrames) > 0 {
			perSession = append(perSession, sessFrames)
		}
	}
	switch v.backend {
	case BackendISV:
		spk, err := v.isv.Enroll(perSession)
		if err != nil {
			return fmt.Errorf("core: ISV enrollment for %q: %w", user, err)
		}
		v.usersMu.Lock()
		v.isvUsers[user] = spk
		v.usersMu.Unlock()
	default:
		ver, err := gmm.NewVerifier(v.ubm, all, v.relevance)
		if err != nil {
			return fmt.Errorf("core: GMM enrollment for %q: %w", user, err)
		}
		e, err := newEnrollment(user, ver)
		if err != nil {
			return err
		}
		v.usersMu.Lock()
		v.users[user] = e
		v.usersMu.Unlock()
	}
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
		if f := v.fast; f != nil {
			return f.score(sc, user, e, frames)
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

// EnableFastPath switches the GMM-UBM backend to the compiled top-C
// scoring path: the UBM is compiled once, speaker models compile on
// first use into the configured cache, and each verify scores the
// speaker only on the frame's C best UBM components. Scores stay within
// gmm.ShortlistEpsilon of the exact path; verdicts are identical
// whenever the threshold margin exceeds that bound. Callers that pin
// bit-exact scores (evidence replay of exact-path packs) simply never
// enable it. Not supported on the ISV backend, whose scoring is not
// component-shortlistable.
func (v *SpeakerVerifier) EnableFastPath(cfg FastPathConfig) error {
	if v.backend != BackendGMMUBM {
		return fmt.Errorf("core: fast ASV scoring requires the GMM-UBM backend, not %v", v.backend)
	}
	if cfg.TopC == 0 {
		cfg.TopC = gmm.DefaultShortlistC
	}
	if cfg.TopC < 0 {
		return fmt.Errorf("core: fast ASV shortlist width %d, want ≥ 1", cfg.TopC)
	}
	sm, err := gmm.Compile(v.ubm)
	if err != nil {
		return fmt.Errorf("core: compiling UBM: %w", err)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = gmm.NewModelCache(0, gmm.CacheMetrics{})
	}
	v.fast = &fastASV{topC: cfg.TopC, ubm: sm, cache: cache}
	return nil
}

// DisableFastPath returns to the exact scoring path.
func (v *SpeakerVerifier) DisableFastPath() { v.fast = nil }

// score runs one fast-path verification: UBM shortlist, cached
// speaker-model compile, shortlist-restricted speaker pass, LLR.
func (f *fastASV) score(span *telemetry.Span, user string, e enrollment, frames [][]float64) (float64, error) {
	if len(frames) == 0 {
		return math.Inf(-1), nil
	}
	span.SetString("scoring_path", "fast-topc")
	span.SetInt("top_c", int64(f.topC))
	us := span.StartSpan("ubm-shortlist")
	sl, err := f.ubm.TopC(frames, f.topC)
	us.End()
	if err != nil {
		return 0, fmt.Errorf("core: UBM shortlist for %q: %w", user, err)
	}
	sm, err := f.speakerModel(user, e)
	if err != nil {
		return 0, err
	}
	ms := span.StartSpan("model-shortlist")
	model, err := sm.MeanLogLikelihoodShortlist(frames, sl)
	ms.End()
	if err != nil {
		return 0, fmt.Errorf("core: shortlist scoring for %q: %w", user, err)
	}
	llr := model - sl.MeanLL()
	span.SetFloat("llr", llr, "nat/frame")
	return llr, nil
}

// speakerModel returns the enrollment's compiled speaker model through
// the LRU cache, keyed by the digest stored with it.
func (f *fastASV) speakerModel(user string, e enrollment) (*gmm.ScoringModel, error) {
	sm, err := f.cache.Get(e.digest, func() (*gmm.ScoringModel, error) { return gmm.Compile(e.ver.Speaker) })
	if err != nil {
		return nil, fmt.Errorf("core: compiling speaker model %q: %w", user, err)
	}
	return sm, nil
}

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
