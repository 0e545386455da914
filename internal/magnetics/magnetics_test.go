package magnetics

import (
	"math"
	"testing"

	"voiceguard/internal/geometry"
)

func TestDipoleOnAxisField(t *testing.T) {
	// On the dipole axis, B = 2·(µ0/4π)·m/r³ pointing along the moment.
	d := Dipole{Moment: geometry.Vec3{Z: 0.05}}
	for _, r := range []float64{0.02, 0.04, 0.06, 0.10} {
		b := d.FieldAt(geometry.Vec3{Z: r}, 0)
		want := OnAxisDipoleField(0.05, r)
		if math.Abs(b.Z-want) > 1e-9*want {
			t.Errorf("r=%v: Bz = %v, want %v", r, b.Z, want)
		}
		if math.Abs(b.X) > 1e-12 || math.Abs(b.Y) > 1e-12 {
			t.Errorf("r=%v: off-axis components %v, %v", r, b.X, b.Y)
		}
	}
}

func TestDipoleEquatorialField(t *testing.T) {
	// On the equator, B = -(µ0/4π)·m/r³ (half the axial value, opposite
	// direction).
	d := Dipole{Moment: geometry.Vec3{Z: 0.05}}
	r := 0.05
	b := d.FieldAt(geometry.Vec3{X: r}, 0)
	wantZ := -Mu0Over4Pi * 0.05 / (r * r * r)
	if math.Abs(b.Z-wantZ) > 1e-9*math.Abs(wantZ) {
		t.Errorf("equatorial Bz = %v, want %v", b.Z, wantZ)
	}
}

func TestDipoleInverseCube(t *testing.T) {
	d := Dipole{Moment: geometry.Vec3{Z: 0.1}}
	b1 := d.FieldAt(geometry.Vec3{Z: 0.05}, 0).Norm()
	b2 := d.FieldAt(geometry.Vec3{Z: 0.10}, 0).Norm()
	if math.Abs(b1/b2-8) > 1e-6 {
		t.Errorf("doubling distance should cut field 8×, ratio = %v", b1/b2)
	}
}

func TestDipoleFieldInPaperRange(t *testing.T) {
	// The paper reports loudspeaker fields of 30–210 µT near the cone.
	// A 0.06 A·m² magnet at 3.5–5 cm should land in that range.
	d := Dipole{Moment: geometry.Vec3{Z: 0.06}}
	b := d.FieldAt(geometry.Vec3{Z: 0.04}, 0).Norm()
	if b < 30 || b > 210 {
		t.Errorf("near-cone field %v µT outside paper's 30–210 µT", b)
	}
}

func TestDipoleSingularityGuard(t *testing.T) {
	d := Dipole{Moment: geometry.Vec3{Z: 0.1}}
	b := d.FieldAt(geometry.Vec3{}, 0)
	if math.IsNaN(b.Norm()) || math.IsInf(b.Norm(), 0) {
		t.Error("field at dipole position must stay finite")
	}
}

func TestVoiceCoilFollowsDrive(t *testing.T) {
	drive := func(t float64) float64 { return math.Sin(2 * math.Pi * 100 * t) }
	c := VoiceCoil{Axis: geometry.Vec3{Z: 1}, MomentGain: 0.01, Drive: drive}
	p := geometry.Vec3{Z: 0.05}
	b0 := c.FieldAt(p, 0)      // sin(0) = 0
	bq := c.FieldAt(p, 0.0025) // quarter period: sin = 1
	if b0.Norm() > 1e-12 {
		t.Errorf("zero drive gives field %v", b0.Norm())
	}
	want := OnAxisDipoleField(0.01, 0.05)
	if math.Abs(bq.Z-want) > 1e-9*want {
		t.Errorf("peak drive field = %v, want %v", bq.Z, want)
	}
	silent := VoiceCoil{Axis: geometry.Vec3{Z: 1}, MomentGain: 0.01}
	if silent.FieldAt(p, 1).Norm() != 0 {
		t.Error("nil drive should produce no field")
	}
}

func TestGeomagneticMagnitude(t *testing.T) {
	g := DefaultGeomagnetic()
	b := g.FieldAt(geometry.Vec3{}, 0)
	if n := b.Norm(); n < 25 || n > 65 {
		t.Errorf("geomagnetic magnitude %v outside Earth range", n)
	}
	// Gradient makes distant points differ.
	far := g.FieldAt(geometry.Vec3{X: 2, Y: 1}, 0)
	if far.Sub(b).Norm() < 0.5 {
		t.Error("indoor gradient too weak to matter")
	}
	// Zero gradient is uniform.
	u := Geomagnetic{Base: geometry.Vec3{X: 40}}
	if u.FieldAt(geometry.Vec3{X: 5}, 0) != u.Base {
		t.Error("zero-gradient field should be uniform")
	}
}

func TestSceneSumsSources(t *testing.T) {
	d1 := Dipole{Moment: geometry.Vec3{Z: 0.05}}
	d2 := Dipole{Position: geometry.Vec3{X: 1}, Moment: geometry.Vec3{Z: 0.05}}
	s := NewScene(d1, d2)
	if len(s.sources) != 2 {
		t.Errorf("sources = %d", len(s.sources))
	}
	p := geometry.Vec3{Z: 0.1}
	sum := d1.FieldAt(p, 0).Add(d2.FieldAt(p, 0))
	got := s.FieldAt(p, 0)
	if got.Sub(sum).Norm() > 1e-12 {
		t.Errorf("scene field %v, want %v", got, sum)
	}
	s.Add(Dipole{Moment: geometry.Vec3{X: 0.01}})
	if len(s.sources) != 3 {
		t.Error("Add failed")
	}
}

func TestShieldAttenuates(t *testing.T) {
	speaker := Dipole{Moment: geometry.Vec3{Z: 0.06}}
	shield := &Shield{
		Enclosed:    speaker,
		Attenuation: MuMetalAttenuation,
	}
	p := geometry.Vec3{Z: 0.06}
	bare := speaker.FieldAt(p, 0).Norm()
	shielded := shield.FieldAt(p, 0).Norm()
	if shielded >= bare/20 {
		t.Errorf("shielded field %v not well below bare %v", shielded, bare)
	}
}

func TestShieldInducedDipoleDetectableClose(t *testing.T) {
	geo := DefaultGeomagnetic()
	speaker := Dipole{Moment: geometry.Vec3{Z: 0.06}}
	shield := &Shield{
		Enclosed:      speaker,
		Attenuation:   MuMetalAttenuation,
		InducedMoment: 2e-4, // A·m² per µT of ambient field
		Ambient:       geo,
	}
	// Very close to the box, the induced soft-iron dipole perturbs the
	// ambient field noticeably (the paper's explanation for catching
	// shielded speakers at ≤6 cm).
	near := geometry.Vec3{Z: 0.04}
	perturb := shield.FieldAt(near, 0).Sub(speaker.FieldAt(near, 0).Scale(1 / MuMetalAttenuation)).Norm()
	if perturb < 3 {
		t.Errorf("induced perturbation at 4 cm = %v µT, want detectable (≥3)", perturb)
	}
	// Far away it fades.
	far := geometry.Vec3{Z: 0.20}
	perturbFar := shield.FieldAt(far, 0).Sub(speaker.FieldAt(far, 0).Scale(1 / MuMetalAttenuation)).Norm()
	if perturbFar > perturb/10 {
		t.Errorf("induced perturbation should fall off: near %v, far %v", perturb, perturbFar)
	}
	if att := (&Shield{Enclosed: speaker, Attenuation: 0}).FieldAt(near, 0); att.Sub(speaker.FieldAt(near, 0)).Norm() > 1e-12 {
		t.Error("attenuation <1 should clamp to 1")
	}
}

func TestInterferenceFallsOffWithDistance(t *testing.T) {
	i := NewInterference(geometry.Vec3{}, 1.0, 60, 2, 1)
	// RMS over a second of samples.
	rms := func(p geometry.Vec3) float64 {
		var s float64
		const n = 600
		for k := 0; k < n; k++ {
			v := i.FieldAt(p, float64(k)/600).Norm()
			s += v * v
		}
		return math.Sqrt(s / n)
	}
	near := rms(geometry.Vec3{X: 0.3})
	far := rms(geometry.Vec3{X: 1.2})
	if near <= far*4 {
		t.Errorf("interference should fall off: near %v, far %v", near, far)
	}
}

func TestEnvironmentKinds(t *testing.T) {
	for _, k := range []EnvironmentKind{EnvQuiet, EnvNearComputer, EnvCar} {
		scene := NewEnvironment(k, 7)
		b := scene.FieldAt(geometry.Vec3{}, 0.1)
		if n := b.Norm(); n < 10 || n > 300 {
			t.Errorf("%v: ambient field %v µT implausible", k, n)
		}
	}
	if EnvQuiet.String() != "quiet" || EnvNearComputer.String() != "near-computer" ||
		EnvCar.String() != "car" || EnvironmentKind(99).String() != "unknown" {
		t.Error("String() labels wrong")
	}
}

func TestEnvironmentVariability(t *testing.T) {
	// Variance of the ambient field over time should rank quiet < computer < car.
	variability := func(k EnvironmentKind) float64 {
		scene := NewEnvironment(k, 3)
		p := geometry.Vec3{X: 0.02, Y: 0.01, Z: 0}
		var prev geometry.Vec3
		var acc float64
		const n = 500
		for i := 0; i < n; i++ {
			b := scene.FieldAt(p, float64(i)/100)
			if i > 0 {
				acc += b.Sub(prev).Norm()
			}
			prev = b
		}
		return acc / float64(n-1)
	}
	q, c, car := variability(EnvQuiet), variability(EnvNearComputer), variability(EnvCar)
	if !(q < c && c < car) {
		t.Errorf("variability ordering wrong: quiet=%v computer=%v car=%v", q, c, car)
	}
}

func BenchmarkSceneFieldAt(b *testing.B) {
	scene := NewEnvironment(EnvCar, 1)
	scene.Add(Dipole{Position: geometry.Vec3{Z: 0.06}, Moment: geometry.Vec3{Z: 0.06}})
	p := geometry.Vec3{X: 0.01, Y: 0.02, Z: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scene.FieldAt(p, float64(i)/100)
	}
}
