package gmm

// Fast scoring path: the classic GMM-UBM top-C shortlist over a
// precompiled, quantized model layout.
//
// The exact path (MeanLogLikelihood / Verifier.Score) walks the
// [][]float64 model in float64, recomputes log-weights per frame and
// runs a full log-sum-exp over every component of both the speaker model
// and the UBM. The fast path compiles a GMM once into a ScoringModel — a
// flat float32 structure-of-arrays holding means and inverse variances
// (multiplication instead of per-dimension division), with the
// per-component constant log w_c − ½(D·log 2π + Σ log σ²) precomputed in
// float64 — and then scores each frame against the full UBM a single
// time, keeps the C best-scoring components, and evaluates the
// MAP-adapted speaker model on only those C components.
// Speaker components are index-aligned with the UBM by construction
// (MAPAdapt clones the UBM and moves means only), which is what makes
// the shortlist transferable between the two models.
//
// Accuracy contract: the shortlist log-likelihood drops the probability
// mass outside the top C components of each frame, and the quantized
// layout rounds model parameters to float32. Both effects largely cancel
// in the log-likelihood ratio because speaker and UBM share the same
// shortlist and nearly the same parameters; equivalence tests pin
// |ΔLLR| ≤ ShortlistEpsilon against the exact path at the default C, and
// verdicts are identical whenever |score − threshold| > ShortlistEpsilon.
// The exact path is retained and remains the default everywhere.

import (
	"bytes"
	"fmt"
	"math"

	"voiceguard/internal/evidence"
	"voiceguard/internal/parallel"
)

// DefaultShortlistC is the default shortlist width: the C best UBM
// components scored against the speaker model per frame. Eight of the
// standard 32 components keeps |ΔLLR| well under ShortlistEpsilon on
// every corpus in the tree while cutting the speaker pass to C/K of its
// exact cost. (Four suffices on CMVN-normalized features, but the ASV
// front-end runs with CMVN off — see SpeakerVerifierConfig — and the
// wider per-frame spread there needs C=8 to hold the ε bound.)
const DefaultShortlistC = 8

// ShortlistEpsilon bounds |ΔLLR| between the fast path (top-C shortlist
// over the float32 layout, at C ≥ DefaultShortlistC) and the exact
// float64 path, in nats per frame. Equivalence tests assert it; callers
// comparing a fast-path score against a threshold get the exact path's
// verdict whenever the margin exceeds this bound.
const ShortlistEpsilon = 0.02

// ScoringLayout names the compiled layout version. It is part of the
// fast path's provenance digest so an evidence pack records which
// compiled form served a decision.
const ScoringLayout = "f32-soa-v1"

// fastMinParallel is the frame count below which the compiled kernels
// run serially: at ~150 ns/frame the fork-join overhead only pays for
// itself on long inputs, not on one short utterance.
const fastMinParallel = 256

// ScoringModel is a GMM compiled for the fast scoring path: quantized
// float32 means and inverse variances in a flat structure-of-arrays
// layout (rows padded to a multiple of four so the inner loop unrolls
// without a tail), plus float64 per-component additive constants. Build
// one with Compile and reuse it; the model is immutable and safe for
// concurrent use.
type ScoringModel struct {
	k, dim   int
	stride   int       // dim rounded up to a multiple of 4
	means    []float32 // k rows × stride, padded with zeros
	invVars  []float32 // k rows × stride, padded with zeros
	consts   []float64 // per component: log w + log-normalizer (GMM.logConst)
	consts32 []float32 // consts quantized once, for the selection loop
	digest   string    // content digest of the source model
}

// ModelDigest returns the canonical content digest of a GMM — the digest
// of its persisted form, identical to the "asv/user/<name>" digests an
// evidence pack records for the same model.
func ModelDigest(g *GMM) (string, error) {
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		return "", fmt.Errorf("gmm: digesting model: %w", err)
	}
	return evidence.Digest(buf.Bytes()), nil
}

// Compile builds the fast-path scoring form of a model. The compiled
// model is content-addressed: Digest returns the source model's
// canonical digest, so caches can key compiled models by the exact
// trained state they were built from.
func Compile(g *GMM) (*ScoringModel, error) {
	k, dim := g.NumComponents(), g.Dim()
	if k == 0 || dim == 0 {
		return nil, fmt.Errorf("%w: cannot compile an empty model", ErrBadTrainingData)
	}
	if len(g.Means) != k || len(g.Vars) != k {
		return nil, fmt.Errorf("%w: %d weights, %d means, %d variances",
			ErrBadTrainingData, k, len(g.Means), len(g.Vars))
	}
	dig, err := ModelDigest(g)
	if err != nil {
		return nil, err
	}
	g.ensureNorm()
	stride := (dim + 3) &^ 3
	m := &ScoringModel{
		k: k, dim: dim, stride: stride,
		means:    make([]float32, k*stride),
		invVars:  make([]float32, k*stride),
		consts:   make([]float64, k),
		consts32: make([]float32, k),
		digest:   dig,
	}
	for c := 0; c < k; c++ {
		if len(g.Means[c]) != dim || len(g.Vars[c]) != dim {
			return nil, fmt.Errorf("%w: component %d has inconsistent dimensionality",
				ErrBadTrainingData, c)
		}
		base := c * stride
		for d := 0; d < dim; d++ {
			m.means[base+d] = float32(g.Means[c][d])
			m.invVars[base+d] = float32(1 / g.Vars[c][d])
		}
		// Padding dimensions keep zero means and zero inverse variances,
		// so they contribute nothing to the quadratic form.
		m.consts[c] = g.logConst[c]
		m.consts32[c] = float32(m.consts[c])
	}
	return m, nil
}

// Digest returns the content digest of the source model this compiled
// form was built from.
func (m *ScoringModel) Digest() string { return m.digest }

// NumComponents returns the mixture size.
func (m *ScoringModel) NumComponents() int { return m.k }

// Dim returns the feature dimensionality.
func (m *ScoringModel) Dim() int { return m.dim }

// SizeBytes returns the resident size of the compiled arrays — what a
// model cache accounts against its resident-bytes gauge.
func (m *ScoringModel) SizeBytes() int {
	return 4*(len(m.means)+len(m.invVars)) + 8*len(m.consts) + 64
}

// Shortlist is the per-frame result of one UBM top-C pass: the UBM
// log-likelihood of each frame restricted to its C best components, and
// the flat frame-major index list (Indices[f*C : (f+1)*C], in
// descending score order, ties by lowest component index) identifying
// those components. A speaker model with the same component count
// scores the shortlist via MeanLogLikelihoodShortlist, which takes its
// own per-frame max and so never depends on the ordering.
type Shortlist struct {
	// C is the shortlist width per frame.
	C int
	// LL holds the per-frame UBM log-likelihood over the top C components.
	LL []float64
	// Indices holds C component indices per frame, frame-major.
	Indices []int32
}

// MeanLL returns the frame-averaged UBM log-likelihood of the shortlist
// pass. Empty input scores -Inf, matching the exact path.
func (s *Shortlist) MeanLL() float64 {
	if len(s.LL) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, v := range s.LL {
		sum += v
	}
	return sum / float64(len(s.LL))
}

// checkFrames validates frame dimensionality against the model.
func (m *ScoringModel) checkFrames(frames [][]float64) error {
	for i, x := range frames {
		if len(x) != m.dim {
			return fmt.Errorf("%w: frame %d has dim %d, want %d", ErrBadTrainingData, i, len(x), m.dim)
		}
	}
	return nil
}

// padFrame quantizes one frame into the padded float32 scratch row. The
// padding entries are zeroed at allocation and never written, so reusing
// the scratch across same-dimension frames is safe.
func (m *ScoringModel) padFrame(x []float64, xf []float32) {
	for d, v := range x {
		xf[d] = float32(v)
	}
}

// quadForm accumulates the full Mahalanobis quadratic form of a padded
// frame against one component, unrolled four dimensions at a time with
// two independent accumulator chains and no early exit — the kernel for
// components that must be scored completely (shortlist fill phase and
// speaker-side shortlist evaluation).
func (m *ScoringModel) quadForm(comp int, xf []float32) float32 {
	base := comp * m.stride
	end := base + m.stride
	mu := m.means[base:end:end]
	iv := m.invVars[base:end:end]
	x := xf
	var s0, s1 float32
	for len(mu) >= 4 && len(iv) >= 4 && len(x) >= 4 {
		d0 := x[0] - mu[0]
		d1 := x[1] - mu[1]
		d2 := x[2] - mu[2]
		d3 := x[3] - mu[3]
		s0 += d0*d0*iv[0] + d2*d2*iv[2]
		s1 += d1*d1*iv[1] + d3*d3*iv[3]
		mu, iv, x = mu[4:], iv[4:], x[4:]
	}
	return s0 + s1
}

// quadSweepGeneric is the portable reference for the quadSweep kernel:
// every component's quadratic form for one padded frame, in the kernel's
// fixed summation order (even 4-dim blocks and odd blocks accumulate
// into separate lane vectors, lanes reduce as (l0+l2)+(l1+l3)). The SSE
// implementation reproduces this order exactly, so both produce
// identical bits.
func quadSweepGeneric(means, invVars, xf, out []float32, k, stride int) {
	var even, odd [4]float32
	for comp := 0; comp < k; comp++ {
		base := comp * stride
		even = [4]float32{}
		odd = [4]float32{}
		for j := 0; j < stride; j += 8 {
			for l := 0; l < 4; l++ {
				d := xf[j+l] - means[base+j+l]
				even[l] += d * d * invVars[base+j+l]
			}
			if j+8 <= stride {
				for l := 0; l < 4; l++ {
					d := xf[j+4+l] - means[base+j+4+l]
					odd[l] += d * d * invVars[base+j+4+l]
				}
			}
		}
		for l := 0; l < 4; l++ {
			even[l] += odd[l]
		}
		out[comp] = (even[0] + even[2]) + (even[1] + even[3])
	}
}

// topCFrame scores one padded frame against every component — one sweep
// of quadratic forms (SSE on amd64, four dimensions per instruction)
// plus the precompiled constants — and keeps the c best in vals/idx
// (descending score order), returning the frame log-likelihood
// restricted to the shortlist. The sweep is deliberately branch-free:
// profiling shows that at serving mixture sizes a straight arithmetic
// pass through the flat float32 layout beats every pruning scheme tried
// (partial-distance elimination, best-first bounds), because component
// log-densities cluster too tightly for upper bounds to reject work.
// Scores compare in float32 (they are exact float32 values, so
// selection loses nothing; vals receives them widened). The quadratic
// forms are rewritten in place into scores, and selection runs as c
// rounds of max-extraction — find the maximum, record it, overwrite it
// with −Inf — which is branch-predictable end to end and vectorizes
// (topCSelect dispatches to an AVX2 kernel on amd64; topCExtract is its
// bit-exact portable mirror). Ties keep the lowest component index.
// idx receives exactly c indices in descending score order; qbuf is
// NumComponents-sized scratch; vals must have length ≥ c.
func (m *ScoringModel) topCFrame(xf []float32, c int, vals []float64, idx []int32, qbuf []float32) float64 {
	quadSweep(m.means, m.invVars, xf, qbuf, m.k, m.stride)
	scoreSelect(qbuf[:m.k], m.consts32[:m.k], vals[:c], idx[:c])
	return logSumExpSorted(vals[:c])
}

// topCExtract is the portable top-C selection: c rounds of
// find-max / record / knock-out over the score buffer (destroyed in the
// process). The amd64 AVX2 kernel implements exactly this procedure —
// same extraction order, same lowest-index tie rule — so shortlists are
// bit-identical across implementations.
func topCExtract(scores []float32, vals []float64, idx []int32) {
	negInf := float32(math.Inf(-1))
	for r := range vals {
		maxAt := 0
		for j := 1; j < len(scores); j++ {
			if scores[j] > scores[maxAt] {
				maxAt = j
			}
		}
		vals[r] = float64(scores[maxAt])
		idx[r] = int32(maxAt)
		scores[maxAt] = negInf
	}
}

// logSumExpSorted computes log Σ exp(vals) over a descending-sorted
// shortlist. The max term needs no exponential, and once a term drops
// more than expCutoff below the max, it and everything after it (sorted)
// cannot move the sum by a representable amount.
func logSumExpSorted(vals []float64) float64 {
	if len(vals) == 0 {
		return math.Inf(-1)
	}
	sum := 1.0
	for i := 1; i < len(vals); i++ {
		d := vals[i] - vals[0]
		if d < -expCutoff {
			break
		}
		sum += expNeg(d)
	}
	return vals[0] + math.Log(sum)
}

// expCutoff is where exp(d) stops affecting a log-sum-exp whose leading
// term is 1: exp(-30) ≈ 9e-14 perturbs the frame log-likelihood about
// twelve decimal digits below the shortlist truncation itself.
const expCutoff = 30

// expNeg computes e^x for x ∈ [-expCutoff, 0] with float32-grade
// accuracy: x is split as k·ln2 + r with r ∈ [-ln2/2, ln2/2], e^r comes
// from a degree-5 Taylor polynomial (relative error < 3e-6, far inside
// the fast path's float32 quantization noise) and the 2^k scale is
// assembled directly into the float64 exponent field. Plain float64
// arithmetic — deterministic across platforms, unlike a libm call it
// costs a handful of cycles on the hot logsumexp.
func expNeg(x float64) float64 {
	k := math.Floor(x*math.Log2E + 0.5)
	r := x - k*math.Ln2
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	return p * math.Float64frombits(uint64(1023+int64(k))<<52)
}

// TopC runs the UBM pass of the fast path: every frame is scored against
// the full model once and its C best components are kept. Frames fan out
// across cores for large inputs; the per-frame results are independent
// of the partition, so the output is bit-identical at any worker count.
// c is clamped to the component count; c = NumComponents makes LL the full
// (quantized) log-likelihood.
func (m *ScoringModel) TopC(frames [][]float64, c int) (*Shortlist, error) {
	if c < 1 {
		return nil, fmt.Errorf("gmm: shortlist width %d, want ≥ 1", c)
	}
	if c > m.k {
		c = m.k
	}
	if err := m.checkFrames(frames); err != nil {
		return nil, err
	}
	sl := &Shortlist{C: c, LL: make([]float64, len(frames)), Indices: make([]int32, len(frames)*c)}
	parallel.RangeMin(len(frames), fastMinParallel, func(lo, hi int) {
		xf := make([]float32, m.stride)
		qbuf := make([]float32, m.k)
		vals := make([]float64, c)
		for i := lo; i < hi; i++ {
			m.padFrame(frames[i], xf)
			sl.LL[i] = m.topCFrame(xf, c, vals, sl.Indices[i*c:(i+1)*c], qbuf)
		}
	})
	return sl, nil
}

// MeanLogLikelihood is the quantized full-mixture counterpart of
// (*GMM).MeanLogLikelihood: every component participates, only the
// float32 layout separates it from the exact path. It exists for
// equivalence testing and as the C = NumComponents end of the shortlist
// sweep. Empty input scores -Inf.
func (m *ScoringModel) MeanLogLikelihood(frames [][]float64) (float64, error) {
	sl, err := m.TopC(frames, m.k)
	if err != nil {
		return 0, err
	}
	return sl.MeanLL(), nil
}

// MeanLogLikelihoodShortlist evaluates this model on another model's
// shortlist: for each frame, only the C listed components are scored and
// log-sum-exp'd. The shortlist must come from a model with the same
// component count (the MAP-adapted speaker model and its UBM by
// construction). Empty input scores -Inf.
func (m *ScoringModel) MeanLogLikelihoodShortlist(frames [][]float64, sl *Shortlist) (float64, error) {
	if sl == nil {
		return 0, fmt.Errorf("gmm: nil shortlist")
	}
	if sl.C < 1 || sl.C > m.k {
		return 0, fmt.Errorf("gmm: shortlist width %d for a %d-component model", sl.C, m.k)
	}
	if len(sl.Indices) != len(frames)*sl.C {
		return 0, fmt.Errorf("gmm: shortlist covers %d frames, scoring %d", len(sl.Indices)/sl.C, len(frames))
	}
	if err := m.checkFrames(frames); err != nil {
		return 0, err
	}
	if len(frames) == 0 {
		return math.Inf(-1), nil
	}
	lls := make([]float64, len(frames))
	c := sl.C
	parallel.RangeMin(len(frames), fastMinParallel, func(lo, hi int) {
		xf := make([]float32, m.stride)
		scores := make([]float64, c)
		for i := lo; i < hi; i++ {
			m.padFrame(frames[i], xf)
			idx := sl.Indices[i*c : (i+1)*c]
			maxv := math.Inf(-1)
			for j, comp := range idx {
				s := m.consts[comp] - 0.5*float64(m.quadForm(int(comp), xf))
				scores[j] = s
				if s > maxv {
					maxv = s
				}
			}
			var sum float64
			for _, s := range scores {
				if d := s - maxv; d >= -expCutoff {
					sum += expNeg(d)
				}
			}
			lls[i] = maxv + math.Log(sum)
		}
	})
	var sum float64
	for _, v := range lls {
		sum += v
	}
	return sum / float64(len(frames)), nil
}

// ScoreShortlist is the fast-path counterpart of Verifier.Score: the
// frame-averaged log-likelihood ratio of speaker over UBM, with the UBM
// scored once per frame and the speaker restricted to the per-frame
// top-c shortlist. Empty input scores -Inf, matching the exact path.
func ScoreShortlist(ubm, speaker *ScoringModel, frames [][]float64, c int) (float64, error) {
	if ubm.k != speaker.k {
		return 0, fmt.Errorf("gmm: UBM has %d components, speaker %d; shortlist scoring needs index-aligned models",
			ubm.k, speaker.k)
	}
	if len(frames) == 0 {
		return math.Inf(-1), nil
	}
	sl, err := ubm.TopC(frames, c)
	if err != nil {
		return 0, err
	}
	model, err := speaker.MeanLogLikelihoodShortlist(frames, sl)
	if err != nil {
		return 0, err
	}
	return model - sl.MeanLL(), nil
}
