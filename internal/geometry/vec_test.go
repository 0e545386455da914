package geometry

import (
	"math"
	"testing"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestVec2Basics(t *testing.T) {
	tests := []struct {
		name string
		got  float64
		want float64
	}{
		{"norm 3-4-5", Vec2{3, 4}.Norm(), 5},
		{"dist", Vec2{1, 1}.Dist(Vec2{4, 5}), 5},
		{"angle x-axis", Vec2{1, 0}.Angle(), 0},
		{"angle y-axis", Vec2{0, 2}.Angle(), math.Pi / 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEq(tt.got, tt.want, eps) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVec2AddSubScale(t *testing.T) {
	v := Vec2{1, 2}
	w := Vec2{-3, 4}
	if got := v.Add(w); got != (Vec2{-2, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec2{4, -2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2.5); got != (Vec2{2.5, 5}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestVec2NormalizeZero(t *testing.T) {
	if got := (Vec2{}).Normalize(); got != (Vec2{}) {
		t.Errorf("Normalize(0) = %v, want zero vector", got)
	}
	u := Vec2{5, 12}.Normalize()
	if !almostEq(u.Norm(), 1, eps) {
		t.Errorf("unit norm = %v", u.Norm())
	}
}

func TestVec3Basics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if !almostEq(Vec3{2, 3, 6}.Norm(), 7, eps) {
		t.Error("Vec3 norm")
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Errorf("Normalize(0) = %v", got)
	}
}
