// Package geometry provides small vector types and geometric fitting
// routines used by the trajectory, sound-field and magnetics subsystems.
//
// The central algorithm is least-squares circle fitting (paper §IV-B1),
// used to estimate the phone→mouth distance from a recovered 2D motion
// trajectory. Both the algebraic Kåsa fit and an iterative geometric
// refinement in the style of Gander, Golub and Strebel are provided.
package geometry

import (
	"fmt"
	"math"

	"voiceguard/internal/stats"
)

// Vec2 is a point or direction in the 2D trajectory plane. Units are meters
// unless stated otherwise.
type Vec2 struct {
	X, Y float64 // unit: any
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s (polymorphic: a unit direction vector
// times a length is a position).
// unit: s any
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Normalize returns the unit vector in the direction of v. The zero vector
// is returned unchanged.
func (v Vec2) Normalize() Vec2 {
	n := v.Norm()
	if stats.IsZero(n) {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the angle of v in radians in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.4g, %.4g)", v.X, v.Y) }

// Vec3 is a point or direction in 3D space, used by the magnetics and
// sensor models. Units are meters unless stated otherwise.
type Vec3 struct {
	X, Y, Z float64 // unit: any
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s (polymorphic: a unit direction vector
// times a length is a position).
// unit: s any
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Normalize returns the unit vector in the direction of v. The zero vector
// is returned unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if stats.IsZero(n) {
		return v
	}
	return v.Scale(1 / n)
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }
