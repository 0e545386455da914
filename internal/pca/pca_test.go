package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFitRecoversDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Data stretched along (1, 1)/√2 with small orthogonal noise.
	var x [][]float64
	for i := 0; i < 500; i++ {
		a := 5 * rng.NormFloat64()
		b := 0.3 * rng.NormFloat64()
		x = append(x, []float64{a/math.Sqrt2 - b/math.Sqrt2, a/math.Sqrt2 + b/math.Sqrt2})
	}
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	c0 := m.Components[0]
	// First component should be ±(1,1)/√2.
	if math.Abs(math.Abs(c0[0])-1/math.Sqrt2) > 0.05 || math.Abs(c0[0]-c0[1]) > 0.1 {
		t.Errorf("first component = %v", c0)
	}
	if m.Explained[0] <= m.Explained[1] {
		t.Error("explained variance not sorted")
	}
}

func TestProjectCentersData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	for i := 0; i < 100; i++ {
		x = append(x, []float64{10 + rng.NormFloat64(), -5 + rng.NormFloat64(), 3 + rng.NormFloat64()})
	}
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj := m.ProjectAll(x)
	if len(proj) != len(x) || len(proj[0]) != 2 {
		t.Fatalf("projection shape %dx%d", len(proj), len(proj[0]))
	}
	// Projections are mean-centered.
	var mean0, mean1 float64
	for _, p := range proj {
		mean0 += p[0]
		mean1 += p[1]
	}
	mean0 /= float64(len(proj))
	mean1 /= float64(len(proj))
	if math.Abs(mean0) > 1e-9 || math.Abs(mean1) > 1e-9 {
		t.Errorf("projected means = %v, %v", mean0, mean1)
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	for i := 0; i < 200; i++ {
		row := make([]float64, 5)
		for d := range row {
			row[d] = rng.NormFloat64() * float64(d+1)
		}
		x = append(x, row)
	}
	m, err := Fit(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var norm float64
		for _, v := range m.Components[i] {
			norm += v * v
		}
		if math.Abs(norm-1) > 1e-8 {
			t.Errorf("component %d norm² = %v", i, norm)
		}
		for j := i + 1; j < 5; j++ {
			var dotp float64
			for d := range m.Components[i] {
				dotp += m.Components[i][d] * m.Components[j][d]
			}
			if math.Abs(dotp) > 1e-8 {
				t.Errorf("components %d,%d dot = %v", i, j, dotp)
			}
		}
	}
}

func TestExplainedMatchesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	for i := 0; i < 2000; i++ {
		x = append(x, []float64{3 * rng.NormFloat64(), rng.NormFloat64()})
	}
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Axis-aligned independent Gaussians: eigenvalues ≈ 9 and 1.
	if math.Abs(m.Explained[0]-9) > 1 {
		t.Errorf("first eigenvalue = %v, want ≈9", m.Explained[0])
	}
	if math.Abs(m.Explained[1]-1) > 0.3 {
		t.Errorf("second eigenvalue = %v, want ≈1", m.Explained[1])
	}
	// Constant data fits and explains no variance.
	m, err = Fit([][]float64{{1, 1}, {1, 1}, {1, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Explained {
		if v != 0 {
			t.Errorf("zero-variance eigenvalue %d = %v, want 0", i, v)
		}
	}
}

func TestFitErrors(t *testing.T) {
	cases := []struct {
		name string
		x    [][]float64
		k    int
	}{
		{"too few rows", [][]float64{{1, 2}}, 1},
		{"k too large", [][]float64{{1, 2}, {3, 4}}, 3},
		{"k zero", [][]float64{{1, 2}, {3, 4}}, 0},
		{"ragged", [][]float64{{1, 2}, {3}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Fit(tc.x, tc.k); !errors.Is(err, ErrBadInput) {
				t.Errorf("err = %v, want ErrBadInput", err)
			}
		})
	}
}

func TestProjectShortVector(t *testing.T) {
	m, err := Fit([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Short input is zero-padded, not a panic.
	_ = m.Project([]float64{1})
}
