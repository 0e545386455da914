package gmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// twoSpeakerData builds a tiny verification scenario: a background
// population plus two distinct "speakers" whose frames are Gaussian blobs
// at different locations.
func twoSpeakerData(rng *rand.Rand) (pool, spkA, spkB [][]float64) {
	centersBG := [][]float64{{0, 0}, {4, 4}, {-4, 2}, {2, -3}}
	pool = blobs(centersBG, 150, 1.2, rng)
	spkA = blobs([][]float64{{1.5, 1.5}, {-1, 2.5}}, 120, 0.7, rng)
	spkB = blobs([][]float64{{-2.5, -1.5}, {3, -2}}, 120, 0.7, rng)
	return pool, spkA, spkB
}

func TestMAPAdaptMovesMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pool, spkA, _ := twoSpeakerData(rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := MAPAdapt(ubm, spkA, 4)
	if err != nil {
		t.Fatal(err)
	}
	var moved float64
	for k := range adapted.Means {
		moved += math.Sqrt(sqDist(adapted.Means[k], ubm.Means[k]))
	}
	if moved < 0.1 {
		t.Errorf("adaptation barely moved means: %v", moved)
	}
	// Weights and variances unchanged (standard means-only recipe).
	for k := range adapted.Weights {
		if adapted.Weights[k] != ubm.Weights[k] {
			t.Error("weights must be unchanged")
		}
		for d := range adapted.Vars[k] {
			if adapted.Vars[k][d] != ubm.Vars[k][d] {
				t.Error("variances must be unchanged")
			}
		}
	}
}

func TestMAPAdaptRelevanceShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool, spkA, _ := twoSpeakerData(rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	low, err := MAPAdapt(ubm, spkA, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := MAPAdapt(ubm, spkA, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var dLow, dHigh float64
	for k := range ubm.Means {
		dLow += math.Sqrt(sqDist(low.Means[k], ubm.Means[k]))
		dHigh += math.Sqrt(sqDist(high.Means[k], ubm.Means[k]))
	}
	if dHigh >= dLow {
		t.Errorf("high relevance should shrink adaptation: %v >= %v", dHigh, dLow)
	}
}

func TestMAPAdaptErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pool, spkA, _ := twoSpeakerData(rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MAPAdapt(ubm, nil, 4); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("nil frames err = %v", err)
	}
	if _, err := MAPAdapt(ubm, spkA, 0); err == nil {
		t.Error("zero relevance should error")
	}
	if _, _, err := AccumulateStats(ubm, [][]float64{{1}}); !errors.Is(err, ErrBadTrainingData) {
		t.Errorf("dim mismatch err = %v", err)
	}
}

func TestVerifierSeparatesSpeakers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool, spkA, spkB := twoSpeakerData(rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(ubm, spkA[:80], 4)
	if err != nil {
		t.Fatal(err)
	}
	genuine := v.Score(spkA[80:])
	impostor := v.Score(spkB)
	if genuine <= impostor {
		t.Errorf("genuine score %v <= impostor score %v", genuine, impostor)
	}
	if genuine <= 0 {
		t.Errorf("genuine LLR should be positive, got %v", genuine)
	}
	if s := v.Score(nil); !math.IsInf(s, -1) {
		t.Errorf("empty test should score -Inf, got %v", s)
	}
}

func TestNewVerifierError(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pool, _, _ := twoSpeakerData(rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVerifier(ubm, nil, 4); err == nil {
		t.Error("expected enrollment error")
	}
}

func TestAccumulateStatsTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool, spkA, _ := twoSpeakerData(rng)
	ubm, err := TrainUBM(pool, TrainConfig{Components: 4, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	n, first, err := AccumulateStats(ubm, spkA)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range n {
		if v < 0 {
			t.Fatal("negative count")
		}
		total += v
	}
	if math.Abs(total-float64(len(spkA))) > 1e-6 {
		t.Errorf("counts sum to %v, want %d", total, len(spkA))
	}
	// First-order stats sum to the data sum.
	var wantX, gotX float64
	for _, x := range spkA {
		wantX += x[0]
	}
	for c := range first {
		gotX += first[c][0]
	}
	if math.Abs(wantX-gotX) > 1e-6*math.Abs(wantX) {
		t.Errorf("first-order x sum %v, want %v", gotX, wantX)
	}
}

// BenchmarkTrainUBM times UBM training in the identity stage's shape: a
// 32-component mixture fitted to the MFCC fixture's 40-dim frames, k-means
// initialization and EM included.
func BenchmarkTrainUBM(b *testing.B) {
	pool := loadMFCCFixture(b).pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainUBM(pool, TrainConfig{Components: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
