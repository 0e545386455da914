// Package pca implements principal component analysis via Jacobi
// eigendecomposition of the covariance matrix. The paper uses PCA to
// visualize sound-field feature separability (Fig. 8).
package pca

import (
	"errors"
	"fmt"
	"math"
)

// Model holds a fitted PCA transform.
type Model struct {
	// Mean is the training-set mean, subtracted before projection.
	Mean []float64
	// Components holds the principal axes, one per row, ordered by
	// decreasing explained variance.
	Components [][]float64
	// Explained holds the variance along each component.
	Explained []float64
}

// ErrBadInput is returned for degenerate PCA input.
var ErrBadInput = errors.New("pca: bad input")

// Fit computes the top-k principal components of the rows of x.
func Fit(x [][]float64, k int) (*Model, error) {
	if len(x) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 rows, have %d", ErrBadInput, len(x))
	}
	dim := len(x[0])
	if k < 1 || k > dim {
		return nil, fmt.Errorf("%w: k=%d outside [1, %d]", ErrBadInput, k, dim)
	}
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: row %d has dim %d, want %d", ErrBadInput, i, len(row), dim)
		}
	}
	mean := make([]float64, dim)
	for _, row := range x {
		for d, v := range row {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(x))
	}
	// Covariance matrix.
	cov := make([][]float64, dim)
	for i := range cov {
		cov[i] = make([]float64, dim)
	}
	for _, row := range x {
		for i := 0; i < dim; i++ {
			di := row[i] - mean[i]
			for j := i; j < dim; j++ {
				cov[i][j] += di * (row[j] - mean[j])
			}
		}
	}
	denom := float64(len(x) - 1)
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			cov[i][j] /= denom
			cov[j][i] = cov[i][j]
		}
	}
	vals, vecs := jacobiEigen(cov)
	// Sort by decreasing eigenvalue (selection sort over small dims).
	idx := make([]int, dim)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < dim; i++ {
		best := i
		for j := i + 1; j < dim; j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	m := &Model{Mean: mean}
	for c := 0; c < k; c++ {
		col := idx[c]
		comp := make([]float64, dim)
		for r := 0; r < dim; r++ {
			comp[r] = vecs[r][col]
		}
		m.Components = append(m.Components, comp)
		ev := vals[col]
		if ev < 0 {
			ev = 0
		}
		m.Explained = append(m.Explained, ev)
	}
	return m, nil
}

// Project maps a raw vector into the principal subspace.
func (m *Model) Project(x []float64) []float64 {
	out := make([]float64, len(m.Components))
	for c, comp := range m.Components {
		var s float64
		for d := range comp {
			v := 0.0
			if d < len(x) {
				v = x[d]
			}
			s += comp[d] * (v - m.Mean[d])
		}
		out[c] = s
	}
	return out
}

// ProjectAll maps every row of x.
func (m *Model) ProjectAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = m.Project(row)
	}
	return out
}

// jacobiEigen computes eigenvalues and eigenvectors of a symmetric matrix
// by cyclic Jacobi rotations. vecs columns are eigenvectors.
func jacobiEigen(a [][]float64) (vals []float64, vecs [][]float64) {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	vecs = make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		vecs[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-15 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := vecs[k][p], vecs[k][q]
					vecs[k][p] = c*vkp - s*vkq
					vecs[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m[i][i]
	}
	return vals, vecs
}
