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
	users    map[string]*gmm.Verifier
	isvUsers map[string]*gmm.ISVSpeaker

	// fast is the compiled top-C scoring state; nil selects the exact
	// path (the default).
	fast *fastASV
}

// UBMShortlister is the seam the serving layer's cross-request batcher
// plugs into: it produces the per-frame UBM top-C shortlist the fast
// scoring path consumes. The result must be bit-identical to a direct
// gmm.ScoringModel.TopC call over the same frames.
type UBMShortlister interface {
	ScoreUBM(frames [][]float64) (*gmm.Shortlist, error)
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
// compiled UBM, the speaker-model cache, the optional batching seam, and
// a per-user memo of speaker-model digests (computing a digest
// serializes the model, which must not happen per request).
type fastASV struct {
	topC        int
	ubm         *gmm.ScoringModel
	cache       *gmm.ModelCache
	shortlister UBMShortlister

	mu      sync.Mutex
	digests map[string]string
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
		users:     make(map[string]*gmm.Verifier),
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
		v.usersMu.Lock()
		v.users[user] = ver
		v.usersMu.Unlock()
		if f := v.fast; f != nil {
			// Re-enrollment produces a new model: drop the stale digest
			// memo so the next score compiles the fresh one (the old
			// cache entry ages out by LRU).
			f.mu.Lock()
			delete(f.digests, user)
			f.mu.Unlock()
		}
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
		ver, ok := v.users[user]
		v.usersMu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownUser, user)
		}
		if f := v.fast; f != nil {
			return f.score(sc, user, ver, frames)
		}
		return ver.ScoreSpan(sc, frames), nil
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
	v.fast = &fastASV{topC: cfg.TopC, ubm: sm, cache: cache, digests: map[string]string{}}
	return nil
}

// DisableFastPath returns to the exact scoring path.
func (v *SpeakerVerifier) DisableFastPath() { v.fast = nil }

// FastPath reports whether the compiled scoring path is enabled and, if
// so, its shortlist width.
func (v *SpeakerVerifier) FastPath() (topC int, enabled bool) {
	if v.fast == nil {
		return 0, false
	}
	return v.fast.topC, true
}

// CompiledUBM returns the compiled UBM of the fast path (nil when
// disabled) — what the serving layer's batcher scores against.
func (v *SpeakerVerifier) CompiledUBM() *gmm.ScoringModel {
	if v.fast == nil {
		return nil
	}
	return v.fast.ubm
}

// SetUBMShortlister routes the fast path's UBM pass through b — the
// server's cross-request batcher. Requires EnableFastPath first; nil
// restores direct scoring.
func (v *SpeakerVerifier) SetUBMShortlister(b UBMShortlister) error {
	if v.fast == nil {
		return errors.New("core: enable the fast ASV path before attaching a shortlister")
	}
	v.fast.shortlister = b
	return nil
}

// score runs one fast-path verification: UBM shortlist (direct or
// batched), cached speaker-model compile, shortlist-restricted speaker
// pass, LLR.
func (f *fastASV) score(span *telemetry.Span, user string, ver *gmm.Verifier, frames [][]float64) (float64, error) {
	if len(frames) == 0 {
		return math.Inf(-1), nil
	}
	span.SetString("scoring_path", "fast-topc")
	span.SetInt("top_c", int64(f.topC))
	us := span.StartSpan("ubm-shortlist")
	var sl *gmm.Shortlist
	var err error
	if f.shortlister != nil {
		us.SetBool("batched", true)
		sl, err = f.shortlister.ScoreUBM(frames)
	} else {
		sl, err = f.ubm.TopC(frames, f.topC)
	}
	us.End()
	if err != nil {
		return 0, fmt.Errorf("core: UBM shortlist for %q: %w", user, err)
	}
	sm, err := f.speakerModel(user, ver)
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

// speakerModel returns the user's compiled speaker model, memoizing the
// model digest per user and compiling through the LRU cache.
func (f *fastASV) speakerModel(user string, ver *gmm.Verifier) (*gmm.ScoringModel, error) {
	f.mu.Lock()
	dig, ok := f.digests[user]
	f.mu.Unlock()
	if !ok {
		var err error
		dig, err = gmm.ModelDigest(ver.Speaker)
		if err != nil {
			return nil, fmt.Errorf("core: digesting speaker model %q: %w", user, err)
		}
		f.mu.Lock()
		f.digests[user] = dig
		f.mu.Unlock()
	}
	sm, err := f.cache.Get(dig, func() (*gmm.ScoringModel, error) { return gmm.Compile(ver.Speaker) })
	if err != nil {
		return nil, fmt.Errorf("core: compiling speaker model %q: %w", user, err)
	}
	return sm, nil
}

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
