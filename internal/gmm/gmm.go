// Package gmm implements the speaker-verification back-end the paper
// adopts from the Spear toolbox: diagonal-covariance Gaussian mixture
// models trained by EM, a universal background model (UBM), MAP-adapted
// speaker models with log-likelihood-ratio scoring, and a simplified
// inter-session variability (ISV) back-end that compensates session
// effects in GMM mean-supervector space.
package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"voiceguard/internal/parallel"
	"voiceguard/internal/stats"
	"voiceguard/internal/telemetry"
)

// GMM is a mixture of diagonal-covariance Gaussians.
type GMM struct {
	// Weights are the mixture weights (sum to 1).
	Weights []float64
	// Means holds one mean vector per component.
	Means [][]float64
	// Vars holds the per-dimension variances per component.
	Vars [][]float64

	// logConst caches each component's log w_c plus its Gaussian log
	// normalization constant: the frame-independent part of
	// componentLogLik.
	logConst []float64
}

// NumComponents returns the mixture size.
func (g *GMM) NumComponents() int { return len(g.Weights) }

// Dim returns the feature dimensionality.
func (g *GMM) Dim() int {
	if len(g.Means) == 0 {
		return 0
	}
	return len(g.Means[0])
}

// varFloor keeps variances strictly positive during EM.
const varFloor = 1e-4

// ErrBadTrainingData is returned when training data is insufficient.
var ErrBadTrainingData = errors.New("gmm: insufficient or inconsistent training data")

// TrainConfig controls EM training.
type TrainConfig struct {
	// Components is the mixture size.
	Components int
	// MaxIter bounds the number of EM iterations (default 25).
	MaxIter int
	// Tol stops EM when the mean log-likelihood improves by less than
	// this amount (default 1e-4).
	Tol float64
	// Seed seeds k-means initialization.
	Seed int64
}

func (c *TrainConfig) setDefaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 25
	}
	if stats.IsZero(c.Tol) {
		c.Tol = 1e-4
	}
}

// Train fits a GMM to data (rows are frames) using k-means initialization
// followed by EM.
func Train(data [][]float64, cfg TrainConfig) (*GMM, error) {
	cfg.setDefaults()
	if cfg.Components < 1 {
		return nil, fmt.Errorf("%w: %d components", ErrBadTrainingData, cfg.Components)
	}
	if len(data) < cfg.Components*2 {
		return nil, fmt.Errorf("%w: %d frames for %d components", ErrBadTrainingData, len(data), cfg.Components)
	}
	dim := len(data[0])
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: row %d has dim %d, want %d", ErrBadTrainingData, i, len(row), dim)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := kmeansInit(data, cfg.Components, rng)
	g.refreshNorm()

	prev := math.Inf(-1)
	tile := newRespTile(len(data), cfg.Components)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// E-step accumulators. Responsibilities are computed tile by tile
		// with the frames fanned out across cores, then accumulated with
		// the components fanned out, each summing its frames in order —
		// bit-identical to the fully serial loop regardless of worker
		// count.
		n := make([]float64, cfg.Components)
		sum := newMatrix(cfg.Components, dim)
		sqsum := newMatrix(cfg.Components, dim)
		var total float64
		for base := 0; base < len(data); base += tile.size() {
			cnt := tile.compute(g, data, base)
			for _, ll := range tile.ll[:cnt] {
				total += ll
			}
			tile.accumulate(data[base:base+cnt], n, sum, sqsum)
		}
		// M-step.
		for k := 0; k < cfg.Components; k++ {
			if n[k] < 1e-8 {
				// Dead component: re-seed on a random frame.
				x := data[rng.Intn(len(data))]
				copy(g.Means[k], x)
				for d := range g.Vars[k] {
					g.Vars[k][d] = 1
				}
				g.Weights[k] = 1e-4
				continue
			}
			g.Weights[k] = n[k] / float64(len(data))
			for d := 0; d < dim; d++ {
				mu := sum[k][d] / n[k]
				g.Means[k][d] = mu
				v := sqsum[k][d]/n[k] - mu*mu
				if v < varFloor {
					v = varFloor
				}
				g.Vars[k][d] = v
			}
		}
		normalizeWeights(g.Weights)
		g.refreshNorm()

		mean := total / float64(len(data))
		if mean-prev < cfg.Tol && iter > 0 {
			break
		}
		prev = mean
	}
	return g, nil
}

// kmeansInit runs a few iterations of k-means and converts the result to
// an initial mixture. The per-frame distance updates and assignments fan
// out over frames, and the center and variance sums over components,
// each summing its frames in order; the RNG draws and the k-means++
// total stay serial, so the mixture and the draws are bit-identical to
// the serial loops at any worker count.
func kmeansInit(data [][]float64, k int, rng *rand.Rand) *GMM {
	dim := len(data[0])
	centers := newMatrix(k, dim)
	// k-means++ seeding: spread the initial centers proportionally to the
	// squared distance from the nearest chosen center, which avoids the
	// classic local optimum of two seeds landing in one cluster.
	copy(centers[0], data[rng.Intn(len(data))])
	minD := make([]float64, len(data))
	parallel.For(len(data), func(i int) {
		minD[i] = sqDist(data[i], centers[0])
	})
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range minD {
			total += d
		}
		idx := 0
		if total > 0 {
			r := rng.Float64() * total
			for i, d := range minD {
				r -= d
				if r <= 0 {
					idx = i
					break
				}
			}
		} else {
			idx = rng.Intn(len(data))
		}
		copy(centers[c], data[idx])
		parallel.For(len(data), func(i int) {
			if d := sqDist(data[i], centers[c]); d < minD[i] {
				minD[i] = d
			}
		})
	}
	assign := make([]int, len(data))
	nearest := make([]int, len(data))
	counts := make([]int, k)
	for iter := 0; iter < 10; iter++ {
		parallel.For(len(data), func(i int) {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := sqDist(data[i], centers[c])
				if d < bestD {
					bestD = d
					best = c
				}
			}
			nearest[i] = best
		})
		changed := !slices.Equal(assign, nearest)
		assign, nearest = nearest, assign
		next := newMatrix(k, dim)
		clusterSums(data, assign, counts, func(c int, x []float64) {
			for d, v := range x {
				next[c][d] += v
			}
		})
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				copy(next[c], data[rng.Intn(len(data))])
				continue
			}
			for d := range next[c] {
				next[c][d] /= float64(counts[c])
			}
		}
		centers = next
		if !changed && iter > 0 {
			break
		}
	}
	// Convert to GMM: cluster variances and proportional weights.
	g := &GMM{
		Weights: make([]float64, k),
		Means:   centers,
		Vars:    newMatrix(k, dim),
	}
	clusterSums(data, assign, counts, func(c int, x []float64) {
		for d, v := range x {
			diff := v - centers[c][d]
			g.Vars[c][d] += diff * diff
		}
	})
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			g.Weights[c] = 1e-4
			for d := range g.Vars[c] {
				g.Vars[c][d] = 1
			}
			continue
		}
		g.Weights[c] = float64(counts[c]) / float64(len(data))
		for d := range g.Vars[c] {
			g.Vars[c][d] /= float64(counts[c])
			if g.Vars[c][d] < varFloor {
				g.Vars[c][d] = varFloor
			}
		}
	}
	normalizeWeights(g.Weights)
	return g
}

// clusterSums sets counts[c] to the number of frames assigned to c and
// calls add(c, x) for each of them. Components fan out in contiguous
// ranges and each range visits its frames in order, so whatever add
// sums per component has the serial loop's bits.
func clusterSums(data [][]float64, assign, counts []int, add func(c int, x []float64)) {
	parallel.Range(len(counts), func(lo, hi int) {
		clear(counts[lo:hi])
		for i, c := range assign {
			if c >= lo && c < hi {
				counts[c]++
				add(c, data[i])
			}
		}
	})
}

// refreshNorm recomputes the cached per-component constants,
// log(w_c + 1e-300) + log-normalizer, after the weights or variances
// change.
func (g *GMM) refreshNorm() {
	k := g.NumComponents()
	dim := g.Dim()
	if g.logConst == nil || len(g.logConst) != k {
		g.logConst = make([]float64, k)
	}
	for c := 0; c < k; c++ {
		var logDet float64
		for d := 0; d < dim; d++ {
			logDet += math.Log(g.Vars[c][d])
		}
		logNorm := -0.5 * (float64(dim)*math.Log(2*math.Pi) + logDet)
		g.logConst[c] = math.Log(g.Weights[c]+1e-300) + logNorm
	}
}

// componentLogLik returns log w_c + log N(x; mu_c, var_c).
func (g *GMM) componentLogLik(c int, x []float64) float64 {
	if g.logConst == nil {
		g.refreshNorm()
	}
	var maha float64
	mu := g.Means[c]
	va := g.Vars[c]
	for d, v := range x {
		diff := v - mu[d]
		maha += diff * diff / va[d]
	}
	return g.logConst[c] - 0.5*maha
}

// LogLikelihood returns log p(x) under the mixture.
func (g *GMM) LogLikelihood(x []float64) float64 {
	lls := make([]float64, g.NumComponents())
	for c := range lls {
		lls[c] = g.componentLogLik(c, x)
	}
	return logSumExp(lls)
}

// logSumExp returns log Σ exp(v[c]), shifted by the maximum for
// stability.
func logSumExp(v []float64) float64 {
	maxv := math.Inf(-1)
	for _, x := range v {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for _, x := range v {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// logLikelihoods writes log p(x) of each frame into lls, with the bits
// LogLikelihood gives frame by frame.
func (g *GMM) logLikelihoods(frames [][]float64, lls []float64) {
	g.componentRows(frames, func(i int, row []float64) { lls[i] = logSumExp(row) })
}

// componentRows calls yield(i, row) for each frame in order, with
// row[c] = componentLogLik(c, frames[i]) to the bit. Where the exact
// kernel runs (exactKernel), whole groups of mahaLanes frames of the
// model's dimension are interleaved into scratch and mahaSweep forms
// every component's Mahalanobis sum for the group at once, summing each
// lane in componentLogLik's order; the remaining frames, and every frame
// elsewhere, go through componentLogLik. row is scratch, valid only
// until yield returns. Scratch, k + mahaLanes·(dim+k) float64s, comes
// from llScratch.
func (g *GMM) componentRows(frames [][]float64, yield func(i int, row []float64)) {
	k, dim := g.NumComponents(), g.Dim()
	kernel := exactKernel && len(frames) >= mahaLanes && g.kernelShape()
	need := k
	if kernel {
		need += mahaLanes * (dim + k)
	}
	bp, _ := llScratch.Get().(*[]float64)
	if bp == nil || cap(*bp) < need {
		s := make([]float64, need)
		bp = &s
	}
	scratch := (*bp)[:need]
	row := scratch[:k]
	i := 0
	if kernel {
		xt, maha := scratch[k:k+mahaLanes*dim], scratch[k+mahaLanes*dim:]
		for ; i+mahaLanes <= len(frames); i += mahaLanes {
			group := frames[i : i+mahaLanes]
			if !interleave(xt, group) {
				break
			}
			mahaSweep(xt, g.Means, g.Vars, maha)
			for j := range group {
				for c := range row {
					row[c] = g.logConst[c] - 0.5*maha[c*mahaLanes+j]
				}
				yield(i+j, row)
			}
		}
	}
	for ; i < len(frames); i++ {
		for c := range row {
			row[c] = g.componentLogLik(c, frames[i])
		}
		yield(i, row)
	}
	llScratch.Put(bp)
}

// llScratch keeps componentRows' scratch between calls, so warm scoring
// blocks allocate nothing. Buffers are not cleared: every value
// componentRows reads, it has written first in the same call.
var llScratch sync.Pool // *[]float64

// mahaLanes is the number of frames one mahaSweep call scores.
const mahaLanes = 4

// kernelShape reports whether the model fits mahaSweep: one mean and
// one variance row of at least Dim values per weight.
func (g *GMM) kernelShape() bool {
	k, dim := g.NumComponents(), g.Dim()
	if len(g.Means) != k || len(g.Vars) != k || len(g.logConst) != k {
		return false
	}
	for c := 0; c < k; c++ {
		if len(g.Means[c]) < dim || len(g.Vars[c]) < dim {
			return false
		}
	}
	return true
}

// interleave writes mahaLanes frames into xt lane-wise, xt[d·mahaLanes+j]
// = group[j][d], and reports false, writing nothing, unless every frame
// has exactly len(xt)/mahaLanes values.
func interleave(xt []float64, group [][]float64) bool {
	dim := len(xt) / mahaLanes
	for _, x := range group {
		if len(x) != dim {
			return false
		}
	}
	for j, x := range group {
		for d, v := range x {
			xt[d*mahaLanes+j] = v
		}
	}
	return true
}

// ensureNorm materializes the cached normalization constants before a
// parallel region. componentLogLik refreshes the cache lazily, which is
// fine serially but would race when frames fan out across workers.
func (g *GMM) ensureNorm() {
	if g.logConst == nil {
		g.refreshNorm()
	}
}

// MeanLogLikelihood returns the average frame log-likelihood of a feature
// matrix. Frames are scored in parallel with per-worker scratch; the
// per-frame values are then summed serially in frame order, so the result
// is bit-identical to the serial loop regardless of worker count.
func (g *GMM) MeanLogLikelihood(frames [][]float64) float64 {
	return g.MeanLogLikelihoodSpan(nil, frames)
}

// MeanLogLikelihoodSpan is MeanLogLikelihood recording its fan-out under
// span: the span (nil disables tracing at zero cost) gains the scoring
// shape as attributes and one "loglik-block" child per worker block. The
// caller owns span's End; the result is bit-identical to
// MeanLogLikelihood.
func (g *GMM) MeanLogLikelihoodSpan(span *telemetry.Span, frames [][]float64) float64 {
	if len(frames) == 0 {
		return math.Inf(-1)
	}
	g.ensureNorm()
	k := g.NumComponents()
	span.SetInt("frames", int64(len(frames)))
	span.SetInt("components", int64(k))
	lls := make([]float64, len(frames))
	parallel.SpanRange(span, "loglik-block", len(frames), func(lo, hi int) {
		g.logLikelihoods(frames[lo:hi], lls[lo:hi])
	})
	var s float64
	for _, v := range lls {
		s += v
	}
	return s / float64(len(frames))
}

// posteriors turns one frame's component log-likelihoods in resp into
// posterior probabilities in place and returns log p(x).
func posteriors(resp []float64) float64 {
	maxv := math.Inf(-1)
	for _, v := range resp {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for c := range resp {
		resp[c] = math.Exp(resp[c] - maxv)
		sum += resp[c]
	}
	for c := range resp {
		resp[c] /= sum
	}
	return maxv + math.Log(sum)
}

// respTileFrames bounds the scratch footprint of a tiled E-step: posteriors
// are computed for at most this many frames at a time.
const respTileFrames = 512

// respTile is a reusable block of per-frame responsibilities and frame
// log-likelihoods. compute fans the posterior evaluation for one tile of
// frames out across cores; accumulate then fans the tile's Baum–Welch
// sums out across components, each summing the tile's frames in order,
// which keeps the overall reduction bit-identical to a fully serial
// E-step.
type respTile struct {
	resp [][]float64
	ll   []float64
}

func newRespTile(frames, components int) *respTile {
	n := frames
	if n > respTileFrames {
		n = respTileFrames
	}
	return &respTile{resp: newMatrix(n, components), ll: make([]float64, n)}
}

func (t *respTile) size() int { return len(t.ll) }

// compute fills the tile with posteriors for data[base : base+cnt] and
// returns cnt, the number of frames covered.
func (t *respTile) compute(g *GMM, data [][]float64, base int) int {
	cnt := len(data) - base
	if cnt > t.size() {
		cnt = t.size()
	}
	g.ensureNorm()
	parallel.Range(cnt, func(lo, hi int) {
		resp, ll := t.resp[lo:hi], t.ll[lo:hi]
		g.componentRows(data[base+lo:base+hi], func(i int, row []float64) {
			copy(resp[i], row)
			ll[i] = posteriors(resp[i])
		})
	})
	return cnt
}

// accumulate adds the posteriors compute left for frames to the Baum–
// Welch sums: n[c] += r, first[c] += r·x and, unless second is nil,
// second[c] += r·x². Components fan out in contiguous ranges and each
// range sums the frames in order, so every sum has the bits of the
// serial frame-by-frame loop.
func (t *respTile) accumulate(frames [][]float64, n []float64, first, second [][]float64) {
	parallel.Range(len(n), func(lo, hi int) {
		for i, x := range frames {
			resp := t.resp[i]
			for c := lo; c < hi; c++ {
				r := resp[c]
				if stats.IsZero(r) {
					continue
				}
				n[c] += r
				f := first[c]
				if second == nil {
					for d, v := range x {
						f[d] += r * v
					}
					continue
				}
				sq := second[c]
				for d, v := range x {
					f[d] += r * v
					sq[d] += r * v * v
				}
			}
		}
	})
}

// Clone returns a deep copy of the model.
func (g *GMM) Clone() *GMM {
	out := &GMM{
		Weights: append([]float64(nil), g.Weights...),
		Means:   newMatrix(len(g.Means), g.Dim()),
		Vars:    newMatrix(len(g.Vars), g.Dim()),
	}
	for i := range g.Means {
		copy(out.Means[i], g.Means[i])
		copy(out.Vars[i], g.Vars[i])
	}
	out.refreshNorm()
	return out
}

func newMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = backing[i*cols : (i+1)*cols]
	}
	return m
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func normalizeWeights(w []float64) {
	var s float64
	for _, v := range w {
		s += v
	}
	if stats.IsZero(s) {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= s
	}
}
