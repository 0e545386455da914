//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation checks here run only without it.

package gmm

import (
	"math/rand"
	"testing"
)

// TestComponentRowsWarmAllocFree pins that a warm componentRows call
// allocates nothing, through both of its callers' yields: every scoring
// block and every E-step tile goes through it.
func TestComponentRowsWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGMM(rng, 32, 40, -1)
	frames := newMatrix(4*mahaLanes+2, 40)
	for _, x := range frames {
		for d := range x {
			x[d] = rng.NormFloat64()
		}
	}
	lls := make([]float64, len(frames))
	resp := newMatrix(len(frames), 32)
	for name, f := range map[string]func(){
		"log-likelihoods": func() { g.logLikelihoods(frames, lls) },
		"posteriors": func() {
			g.componentRows(frames, func(i int, row []float64) {
				copy(resp[i], row)
				lls[i] = posteriors(resp[i])
			})
		},
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocations per warm call, want 0", name, allocs)
		}
	}
}
