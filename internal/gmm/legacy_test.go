package gmm

// Seed (pre-fan-out) scoring and accumulation paths kept in test code: the
// parallel implementations promise bit-identical results to these serial
// loops regardless of worker count, so the comparisons below use exact
// equality, not tolerances.

import (
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/stats"
)

// legacyMeanLogLikelihood is the seed serial scoring loop.
func legacyMeanLogLikelihood(g *GMM, frames [][]float64) float64 {
	if len(frames) == 0 {
		return math.Inf(-1)
	}
	var s float64
	for _, x := range frames {
		s += g.LogLikelihood(x)
	}
	return s / float64(len(frames))
}

// responsibilities is the E-step's per-frame path before the kernel:
// it fills resp with the posterior component probabilities of x, each
// log-likelihood from componentLogLik, and returns log p(x).
func (g *GMM) responsibilities(x []float64, resp []float64) float64 {
	for c := range resp {
		resp[c] = g.componentLogLik(c, x)
	}
	return posteriors(resp)
}

// legacyAccumulateStats is the seed serial Baum–Welch accumulator.
func legacyAccumulateStats(g *GMM, frames [][]float64) (n []float64, first [][]float64) {
	k := g.NumComponents()
	dim := g.Dim()
	n = make([]float64, k)
	first = newMatrix(k, dim)
	resp := make([]float64, k)
	for _, x := range frames {
		g.responsibilities(x, resp)
		for c := 0; c < k; c++ {
			r := resp[c]
			if stats.IsZero(r) {
				continue
			}
			n[c] += r
			for d, v := range x {
				first[c][d] += r * v
			}
		}
	}
	return n, first
}

// legacyTrain duplicates Train with the seed's serial k-means and E-step
// so the parallel ones can be checked for bit-identical models.
func legacyTrain(data [][]float64, cfg TrainConfig) *GMM {
	cfg.setDefaults()
	dim := len(data[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := legacyKmeansInit(data, cfg.Components, rng)
	g.refreshNorm()

	prev := math.Inf(-1)
	resp := make([]float64, cfg.Components)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		n := make([]float64, cfg.Components)
		sum := newMatrix(cfg.Components, dim)
		sqsum := newMatrix(cfg.Components, dim)
		var total float64
		for _, x := range data {
			ll := g.responsibilities(x, resp)
			total += ll
			for k := 0; k < cfg.Components; k++ {
				r := resp[k]
				if stats.IsZero(r) {
					continue
				}
				n[k] += r
				for d, v := range x {
					sum[k][d] += r * v
					sqsum[k][d] += r * v * v
				}
			}
		}
		for k := 0; k < cfg.Components; k++ {
			if n[k] < 1e-8 {
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
	return g
}

// legacyKmeansInit is the serial k-means++ seeding and Lloyd iteration
// that kmeansInit fans out over frames and components.
func legacyKmeansInit(data [][]float64, k int, rng *rand.Rand) *GMM {
	dim := len(data[0])
	centers := newMatrix(k, dim)
	copy(centers[0], data[rng.Intn(len(data))])
	minD := make([]float64, len(data))
	for i, x := range data {
		minD[i] = sqDist(x, centers[0])
	}
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
		for i, x := range data {
			if d := sqDist(x, centers[c]); d < minD[i] {
				minD[i] = d
			}
		}
	}
	assign := make([]int, len(data))
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i, x := range data {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := sqDist(x, centers[c])
				if d < bestD {
					bestD = d
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		counts := make([]int, k)
		next := newMatrix(k, dim)
		for i, x := range data {
			c := assign[i]
			counts[c]++
			for d, v := range x {
				next[c][d] += v
			}
		}
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
	g := &GMM{
		Weights: make([]float64, k),
		Means:   centers,
		Vars:    newMatrix(k, dim),
	}
	counts := make([]int, k)
	for i, x := range data {
		c := assign[i]
		counts[c]++
		for d, v := range x {
			diff := v - centers[c][d]
			g.Vars[c][d] += diff * diff
		}
	}
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

func scoringFixture(tb testing.TB, frames int) (*GMM, [][]float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	centers := [][]float64{
		{0, 0, 0, 0}, {4, 4, 0, -2}, {-3, 2, 5, 1},
	}
	train := blobs(centers, 240, 0.8, rng)
	g, err := Train(train, TrainConfig{Components: 8, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	test := blobs(centers, frames/len(centers)+1, 0.9, rng)[:frames]
	return g, test
}

// TestMeanLogLikelihoodMatchesLegacy pins the determinism contract: the
// parallel fan-out must be bit-identical to the serial loop.
func TestMeanLogLikelihoodMatchesLegacy(t *testing.T) {
	g, test := scoringFixture(t, 201)
	for _, n := range []int{0, 1, 3, 7, 201} {
		got := g.MeanLogLikelihood(test[:n])
		want := legacyMeanLogLikelihood(g, test[:n])
		if got != want { //lint:allow floatcmp parallel scoring must be bit-identical to serial
			t.Fatalf("n=%d: parallel %v != serial %v", n, got, want)
		}
	}
}

// TestAccumulateStatsMatchesLegacy pins bit-identical Baum–Welch statistics
// from the tiled parallel accumulator, including across a tile boundary.
func TestAccumulateStatsMatchesLegacy(t *testing.T) {
	g, test := scoringFixture(t, respTileFrames+37)
	n, first, err := AccumulateStats(g, test)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantFirst := legacyAccumulateStats(g, test)
	for c := range n {
		if n[c] != wantN[c] { //lint:allow floatcmp tiled stats must be bit-identical to serial
			t.Fatalf("n[%d]: tiled %v != serial %v", c, n[c], wantN[c])
		}
		for d := range first[c] {
			if first[c][d] != wantFirst[c][d] { //lint:allow floatcmp tiled stats must be bit-identical to serial
				t.Fatalf("first[%d][%d]: tiled %v != serial %v", c, d, first[c][d], wantFirst[c][d])
			}
		}
	}
}

// sameModel fails t unless got and want carry the same bits in every
// weight, mean and variance.
func sameModel(t *testing.T, what string, got, want *GMM) {
	t.Helper()
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: %d components, want %d", what, len(got.Weights), len(want.Weights))
	}
	for c := range want.Weights {
		if got.Weights[c] != want.Weights[c] { //lint:allow floatcmp parallel set-up must be bit-identical to serial
			t.Fatalf("%s: weight %d: %v != %v", what, c, got.Weights[c], want.Weights[c])
		}
		for d := range want.Means[c] {
			if got.Means[c][d] != want.Means[c][d] { //lint:allow floatcmp parallel set-up must be bit-identical to serial
				t.Fatalf("%s: mean %d/%d: %v != %v", what, c, d, got.Means[c][d], want.Means[c][d])
			}
			if got.Vars[c][d] != want.Vars[c][d] { //lint:allow floatcmp parallel set-up must be bit-identical to serial
				t.Fatalf("%s: var %d/%d: %v != %v", what, c, d, got.Vars[c][d], want.Vars[c][d])
			}
		}
	}
}

// servedShapeFrames returns n of the MFCC fixture's 40-dim frames, the
// shape the identity stage trains its 32-component UBM on.
func servedShapeFrames(t *testing.T, n int) [][]float64 {
	t.Helper()
	pool := loadMFCCFixture(t).pool
	if len(pool) < n {
		t.Fatalf("MFCC fixture has %d frames, want %d", len(pool), n)
	}
	return pool[:n]
}

// TestTrainMatchesLegacyEStep pins that the parallel E-step produces the
// same model, bit for bit, as the seed's serial E-step: on 2-dim blobs,
// and in the served shape (40-dim MFCC frames, 32 components) with a
// frame count that leaves a partial tile and, at every worker count, a
// tail of frames short of a whole kernel group in some block.
func TestTrainMatchesLegacyEStep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		name string
		data [][]float64
		cfg  TrainConfig
	}{
		{name: "blobs", data: blobs([][]float64{{0, 0}, {5, 5}, {-4, 3}}, 300, 0.7, rng), cfg: TrainConfig{Components: 6, Seed: 9, MaxIter: 12}},
		{name: "served", data: servedShapeFrames(t, 2*respTileFrames+203), cfg: TrainConfig{Components: 32, Seed: 4, MaxIter: 6}},
	}
	for _, tc := range cases {
		got, err := Train(tc.data, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameModel(t, tc.name, got, legacyTrain(tc.data, tc.cfg))
	}
}

// TestKmeansInitMatchesLegacy holds kmeansInit to the serial k-means:
// the same mixture bits and the same RNG draws, on blobs, on the served
// shape, and on identical frames, where k-means++ falls back to uniform
// draws and every cluster but one empties and is re-seeded.
func TestKmeansInitMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	flat := newMatrix(40, 3)
	for _, x := range flat {
		copy(x, []float64{1, -2, 0.5})
	}
	cases := []struct {
		name string
		data [][]float64
		k    int
	}{
		{name: "blobs", data: blobs([][]float64{{0, 0}, {5, 5}, {-4, 3}}, 97, 0.7, rng), k: 6},
		{name: "served", data: servedShapeFrames(t, respTileFrames+203), k: 32},
		{name: "identical", data: flat, k: 5},
		{name: "one-component", data: blobs([][]float64{{1, 2, 3}}, 9, 1, rng), k: 1},
	}
	for _, tc := range cases {
		gotRNG, wantRNG := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
		got := kmeansInit(tc.data, tc.k, gotRNG)
		want := legacyKmeansInit(tc.data, tc.k, wantRNG)
		sameModel(t, tc.name, got, want)
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Errorf("%s: kmeansInit left the RNG at a different point", tc.name)
		}
	}
}

// BenchmarkMeanLogLikelihoodLegacy / BenchmarkMeanLogLikelihood read as a
// before/after pair: serial per-frame allocation vs parallel fan-out with
// per-worker scratch.
func BenchmarkMeanLogLikelihoodLegacy(b *testing.B) {
	g, test := scoringFixture(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyMeanLogLikelihood(g, test)
	}
}

func BenchmarkMeanLogLikelihood(b *testing.B) {
	g, test := scoringFixture(b, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MeanLogLikelihood(test)
	}
}
