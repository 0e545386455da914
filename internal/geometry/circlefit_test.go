package geometry

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// circlePoints samples n points on the arc [a0, a1] of the given circle,
// with optional radial Gaussian noise.
func circlePoints(c Circle, a0, a1 float64, n int, noise float64, rng *rand.Rand) []Vec2 {
	pts := make([]Vec2, n)
	for i := range pts {
		theta := a0 + (a1-a0)*float64(i)/float64(n-1)
		r := c.Radius
		if noise > 0 {
			r += rng.NormFloat64() * noise
		}
		pts[i] = Vec2{
			c.Center.X + r*math.Cos(theta),
			c.Center.Y + r*math.Sin(theta),
		}
	}
	return pts
}

func TestFitCircleExact(t *testing.T) {
	tests := []struct {
		name string
		c    Circle
		a0   float64
		a1   float64
		n    int
	}{
		{"full circle", Circle{Vec2{1, -2}, 3}, 0, 2 * math.Pi, 24},
		{"half circle", Circle{Vec2{-5, 4}, 0.06}, 0, math.Pi, 12},
		{"small arc", Circle{Vec2{0, 0}, 0.10}, 0.2, 1.2, 16},
		{"tiny radius (6 cm, paper Dt)", Circle{Vec2{0.1, 0.1}, 0.06}, -0.5, 1.5, 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pts := circlePoints(tt.c, tt.a0, tt.a1, tt.n, 0, nil)
			for _, fit := range []func([]Vec2) (Circle, error){FitCircleKasa, FitCircle} {
				got, err := fit(pts)
				if err != nil {
					t.Fatalf("fit: %v", err)
				}
				if !almostEq(got.Radius, tt.c.Radius, 1e-6) {
					t.Errorf("radius = %v, want %v", got.Radius, tt.c.Radius)
				}
				if got.Center.Dist(tt.c.Center) > 1e-6 {
					t.Errorf("center = %v, want %v", got.Center, tt.c.Center)
				}
			}
		})
	}
}

func TestFitCircleNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := Circle{Vec2{0.02, 0.15}, 0.06} // 6 cm source distance.
	pts := circlePoints(truth, -0.8, 0.9, 60, 0.002, rng)
	got, err := FitCircle(pts)
	if err != nil {
		t.Fatalf("FitCircle: %v", err)
	}
	if math.Abs(got.Radius-truth.Radius) > 0.005 {
		t.Errorf("radius = %v, want %v ± 5mm", got.Radius, truth.Radius)
	}
	if got.Center.Dist(truth.Center) > 0.01 {
		t.Errorf("center = %v, want %v ± 1cm", got.Center, truth.Center)
	}
	// Geometric refinement should not be worse than the algebraic seed.
	kasa, err := FitCircleKasa(pts)
	if err != nil {
		t.Fatalf("FitCircleKasa: %v", err)
	}
	if got.RMSResidual(pts) > kasa.RMSResidual(pts)+1e-12 {
		t.Errorf("geometric residual %v > algebraic residual %v",
			got.RMSResidual(pts), kasa.RMSResidual(pts))
	}
}

func TestFitCircleDegenerate(t *testing.T) {
	tests := []struct {
		name string
		pts  []Vec2
	}{
		{"too few", []Vec2{{0, 0}, {1, 1}}},
		{"collinear", []Vec2{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}},
		{"repeated point", []Vec2{{1, 1}, {1, 1}, {1, 1}, {1, 1}}},
		{"empty", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FitCircle(tt.pts); !errors.Is(err, ErrDegenerate) {
				t.Errorf("err = %v, want ErrDegenerate", err)
			}
		})
	}
}

func TestFitCircleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		truth := Circle{
			Center: Vec2{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
			Radius: 0.02 + rng.Float64()*0.5,
		}
		a0 := rng.Float64() * math.Pi
		span := 0.8 + rng.Float64()*2
		pts := circlePoints(truth, a0, a0+span, 30, 0, nil)
		got, err := FitCircle(pts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(got.Radius-truth.Radius) > 1e-5*(1+truth.Radius) {
			t.Fatalf("case %d: radius = %v, want %v", i, got.Radius, truth.Radius)
		}
	}
}

func TestRMSResidual(t *testing.T) {
	c := Circle{Vec2{0, 0}, 1}
	onCircle := circlePoints(c, 0, 2*math.Pi, 10, 0, nil)
	if got := c.RMSResidual(onCircle); got > 1e-12 {
		t.Errorf("residual on exact points = %v, want 0", got)
	}
	if got := c.RMSResidual(nil); got != 0 {
		t.Errorf("residual of empty = %v, want 0", got)
	}
	// Points at radius 2 have residual exactly 1.
	far := circlePoints(Circle{Vec2{0, 0}, 2}, 0, 2*math.Pi, 10, 0, nil)
	if got := c.RMSResidual(far); !almostEq(got, 1, 1e-9) {
		t.Errorf("residual = %v, want 1", got)
	}
}

func BenchmarkFitCircle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := circlePoints(Circle{Vec2{0, 0.1}, 0.06}, -0.8, 0.9, 100, 0.002, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitCircle(pts); err != nil {
			b.Fatal(err)
		}
	}
}
