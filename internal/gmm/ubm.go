package gmm

import (
	"fmt"
	"math"

	"voiceguard/internal/telemetry"
)

// This file implements the GMM-UBM speaker-verification recipe: a
// universal background model trained on many speakers, per-speaker models
// derived by maximum-a-posteriori adaptation of the UBM means, and
// verification by frame-averaged log-likelihood ratio.

// TrainUBM trains the universal background model by pooling frames from
// many speakers. It is a thin wrapper over Train kept separate for intent
// at call sites.
func TrainUBM(pooledFrames [][]float64, cfg TrainConfig) (*GMM, error) {
	g, err := Train(pooledFrames, cfg)
	if err != nil {
		return nil, fmt.Errorf("gmm: training UBM: %w", err)
	}
	return g, nil
}

// MAPAdapt derives a speaker model from the UBM by adapting component
// means toward the speaker's enrollment frames with the given relevance
// factor (typically 4–19; Spear uses 4 for small enrollment sets).
// Weights and variances are kept from the UBM, the standard recipe.
func MAPAdapt(ubm *GMM, frames [][]float64, relevance float64) (*GMM, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("%w: no enrollment frames", ErrBadTrainingData)
	}
	if relevance <= 0 {
		return nil, fmt.Errorf("gmm: relevance factor %v must be positive", relevance)
	}
	k := ubm.NumComponents()
	dim := ubm.Dim()
	n, first, err := AccumulateStats(ubm, frames)
	if err != nil {
		return nil, err
	}
	out := ubm.Clone()
	for c := 0; c < k; c++ {
		alpha := n[c] / (n[c] + relevance)
		for d := 0; d < dim; d++ {
			var ml float64
			if n[c] > 1e-10 {
				ml = first[c][d] / n[c]
			} else {
				ml = ubm.Means[c][d]
			}
			out.Means[c][d] = alpha*ml + (1-alpha)*ubm.Means[c][d]
		}
	}
	out.refreshNorm()
	return out, nil
}

// AccumulateStats computes zeroth-order (n) and first-order (sum) Baum–
// Welch statistics of frames against the model. Posteriors are computed in
// parallel tiles and accumulated with the components fanned out, each
// summing its frames in order, so the statistics are bit-identical to a
// serial pass.
func AccumulateStats(g *GMM, frames [][]float64) (n []float64, first [][]float64, err error) {
	k := g.NumComponents()
	dim := g.Dim()
	for i, x := range frames {
		if len(x) != dim {
			return nil, nil, fmt.Errorf("%w: frame %d has dim %d, want %d", ErrBadTrainingData, i, len(x), dim)
		}
	}
	n = make([]float64, k)
	first = newMatrix(k, dim)
	if len(frames) == 0 {
		return n, first, nil
	}
	tile := newRespTile(len(frames), k)
	for base := 0; base < len(frames); base += tile.size() {
		cnt := tile.compute(g, frames, base)
		tile.accumulate(frames[base:base+cnt], n, first, nil)
	}
	return n, first, nil
}

// Verifier scores test utterances against an enrolled speaker using the
// frame-averaged log-likelihood ratio between the speaker model and the
// UBM. Higher scores mean "more likely the enrolled speaker".
type Verifier struct {
	UBM     *GMM
	Speaker *GMM
}

// NewVerifier enrolls a speaker from feature frames.
func NewVerifier(ubm *GMM, enrollFrames [][]float64, relevance float64) (*Verifier, error) {
	spk, err := MAPAdapt(ubm, enrollFrames, relevance)
	if err != nil {
		return nil, fmt.Errorf("gmm: enrolling speaker: %w", err)
	}
	return &Verifier{UBM: ubm, Speaker: spk}, nil
}

// Score returns the frame-averaged log-likelihood ratio of the test
// frames. Empty input scores -Inf.
func (v *Verifier) Score(frames [][]float64) float64 {
	return v.ScoreSpan(nil, frames)
}

// ScoreSpan is Score recording its two likelihood passes under span: the
// span (nil disables tracing at zero cost) gains "model-loglik" and
// "ubm-loglik" children plus the resulting llr attribute. The caller owns
// span's End; the result is bit-identical to Score.
func (v *Verifier) ScoreSpan(span *telemetry.Span, frames [][]float64) float64 {
	if len(frames) == 0 {
		return math.Inf(-1)
	}
	ms := span.StartSpan("model-loglik")
	model := v.Speaker.MeanLogLikelihoodSpan(ms, frames)
	ms.End()
	us := span.StartSpan("ubm-loglik")
	background := v.UBM.MeanLogLikelihoodSpan(us, frames)
	us.End()
	llr := model - background
	span.SetFloat("llr", llr, "nat/frame")
	return llr
}
