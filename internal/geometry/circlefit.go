package geometry

import (
	"errors"
	"math"

	"voiceguard/internal/stats"
)

// Circle is a circle in the 2D trajectory plane.
type Circle struct {
	Center Vec2
	Radius float64 // unit: m
}

// ErrDegenerate is returned when a fit is attempted on fewer than three
// points or on (nearly) collinear points that do not determine a circle.
var ErrDegenerate = errors.New("geometry: degenerate point set for circle fit")

// FitCircleKasa computes the algebraic least-squares circle fit of Kåsa.
//
// It minimizes Σ (|p_i - c|² - r²)², which reduces to a 3×3 linear system.
// The algebraic fit is fast and is used as the initial estimate for the
// geometric refinement in FitCircle.
func FitCircleKasa(pts []Vec2) (Circle, error) {
	if len(pts) < 3 {
		return Circle{}, ErrDegenerate
	}
	// Center the data for numerical stability.
	var mx, my float64
	for _, p := range pts {
		mx += p.X
		my += p.Y
	}
	n := float64(len(pts))
	mx /= n
	my /= n

	var suu, suv, svv, suuu, svvv, suvv, svuu float64
	for _, p := range pts {
		u := p.X - mx
		v := p.Y - my
		suu += u * u
		svv += v * v
		suv += u * v
		suuu += u * u * u
		svvv += v * v * v
		suvv += u * v * v
		svuu += v * u * u
	}
	// Solve
	//   [suu suv] [uc]   [ (suuu + suvv)/2 ]
	//   [suv svv] [vc] = [ (svvv + svuu)/2 ]
	det := suu*svv - suv*suv
	scale := suu + svv
	if stats.IsZero(scale) || math.Abs(det) < 1e-12*scale*scale {
		return Circle{}, ErrDegenerate
	}
	bu := (suuu + suvv) / 2
	bv := (svvv + svuu) / 2
	uc := (bu*svv - bv*suv) / det
	vc := (bv*suu - bu*suv) / det

	r2 := uc*uc + vc*vc + (suu+svv)/n
	return Circle{Center: Vec2{uc + mx, vc + my}, Radius: math.Sqrt(r2)}, nil
}

// FitCircle computes a geometric least-squares circle fit: it minimizes the
// sum of squared orthogonal distances Σ (|p_i - c| - r)² via Gauss–Newton
// iteration, seeded with the Kåsa algebraic fit. This follows the approach
// of Gander, Golub and Strebel, "Least-squares fitting of circles and
// ellipses" (the method the paper cites for its distance estimation).
func FitCircle(pts []Vec2) (Circle, error) {
	c, err := FitCircleKasa(pts)
	if err != nil {
		return Circle{}, err
	}
	const (
		maxIter = 64
		tol     = 1e-12
	)
	for iter := 0; iter < maxIter; iter++ {
		// Gauss–Newton step on parameters (cx, cy, r).
		// Residual f_i = |p_i - c| - r, Jacobian rows:
		//   df/dcx = -(x_i-cx)/d_i, df/dcy = -(y_i-cy)/d_i, df/dr = -1.
		var jtj [3][3]float64
		var jtf [3]float64
		ok := true
		for _, p := range pts {
			dx := p.X - c.Center.X
			dy := p.Y - c.Center.Y
			d := math.Hypot(dx, dy)
			if d < 1e-12 {
				ok = false
				break
			}
			f := d - c.Radius
			j := [3]float64{-dx / d, -dy / d, -1}
			for a := 0; a < 3; a++ {
				jtf[a] += j[a] * f
				for b := 0; b < 3; b++ {
					jtj[a][b] += j[a] * j[b]
				}
			}
		}
		if !ok {
			break
		}
		step, solved := solve3(jtj, [3]float64{-jtf[0], -jtf[1], -jtf[2]})
		if !solved {
			break
		}
		c.Center.X += step[0]
		c.Center.Y += step[1]
		c.Radius += step[2]
		if step[0]*step[0]+step[1]*step[1]+step[2]*step[2] < tol*tol {
			break
		}
	}
	if c.Radius <= 0 || math.IsNaN(c.Radius) || math.IsInf(c.Radius, 0) {
		return Circle{}, ErrDegenerate
	}
	return c, nil
}

// solve3 solves a 3×3 linear system with partial pivoting. The second
// return value reports whether the system was well conditioned enough to
// solve.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	// Augment and eliminate.
	var m [3][4]float64
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-14 {
			return [3]float64{}, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k < 4; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = m[i][3] / m[i][i]
	}
	return x, true
}

// RMSResidual returns the root-mean-square orthogonal distance of the
// points from the circle, a goodness-of-fit measure used to reject
// trajectories that are not arc-like.
func (c Circle) RMSResidual(pts []Vec2) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		r := p.Dist(c.Center) - c.Radius
		s += r * r
	}
	return math.Sqrt(s / float64(len(pts)))
}
