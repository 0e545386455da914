// Package magnetics models the magnetic environment the paper's
// loudspeaker-detection component senses: the static dipole field of a
// loudspeaker's permanent magnet, the dynamic field of its driven voice
// coil, the geomagnetic background, ferromagnetic shielding (Mu-metal) and
// ambient electromagnetic interference from nearby electronics (computer,
// car). All field values are in microtesla (µT), positions in meters and
// time in seconds.
package magnetics

import (
	"math"
	"math/rand"

	"voiceguard/internal/geometry"
	"voiceguard/internal/stats"
)

// Mu0Over4Pi is µ0/4π expressed so that dipole fields computed with
// moments in A·m² and distances in meters come out in µT.
// (µ0/4π = 1e-7 T·m/A = 0.1 µT·m³/(A·m²)).
const Mu0Over4Pi = 0.1

// FieldSource produces a magnetic field vector at a point and time.
type FieldSource interface {
	// FieldAt returns the field contribution in µT at position p (meters)
	// and time t (seconds).
	FieldAt(p geometry.Vec3, t float64) geometry.Vec3
}

// Dipole is a static magnetic dipole — the model for a loudspeaker's
// permanent magnet.
type Dipole struct {
	// Position is the dipole location in meters.
	Position geometry.Vec3
	// Moment is the dipole moment in A·m². Typical small-speaker magnets
	// are 0.02–1 A·m²; the magnitude is calibrated so near-cone fields
	// fall in the 30–210 µT range the paper reports (Fig. 10).
	Moment geometry.Vec3
}

// FieldAt implements FieldSource using the point-dipole equation
// B = (µ0/4π)·(3(m·r̂)r̂ − m)/r³.
func (d Dipole) FieldAt(p geometry.Vec3, _ float64) geometry.Vec3 {
	r := p.Sub(d.Position)
	dist := r.Norm()
	if dist < 1e-6 {
		dist = 1e-6
	}
	rhat := r.Scale(1 / dist)
	mdot := d.Moment.Dot(rhat)
	num := rhat.Scale(3 * mdot).Sub(d.Moment)
	return num.Scale(Mu0Over4Pi / (dist * dist * dist))
}

// VoiceCoil is the dynamic dipole created by the loudspeaker's driven
// coil: its moment follows the audio drive signal.
type VoiceCoil struct {
	// Position is the coil location in meters.
	Position geometry.Vec3
	// Axis is the coil axis (unit vector).
	Axis geometry.Vec3
	// MomentGain converts the instantaneous drive amplitude (nominal
	// [-1, 1]) into a dipole moment in A·m². Typically 1–10% of the
	// permanent magnet's moment.
	MomentGain float64 // unit: A*m^2
	// Drive returns the instantaneous normalized drive amplitude at time
	// t; nil means silence.
	Drive func(t float64) float64
}

// FieldAt implements FieldSource.
// unit: t s
func (c VoiceCoil) FieldAt(p geometry.Vec3, t float64) geometry.Vec3 {
	if c.Drive == nil {
		return geometry.Vec3{}
	}
	m := c.Drive(t) * c.MomentGain
	d := Dipole{Position: c.Position, Moment: c.Axis.Normalize().Scale(m)}
	return d.FieldAt(p, t)
}

// Geomagnetic is the Earth's background field with optional slow indoor
// distortion (steel furniture, rebar) modeled as a spatial gradient.
type Geomagnetic struct {
	// Base is the undisturbed field vector in µT (≈25–65 µT magnitude).
	Base geometry.Vec3
	// GradientScale adds a position-dependent distortion of roughly this
	// many µT per meter, as observed indoors.
	GradientScale float64 // unit: µT/m
}

// DefaultGeomagnetic returns a typical mid-latitude field: ~48 µT with a
// downward dip.
func DefaultGeomagnetic() Geomagnetic {
	return Geomagnetic{
		Base:          geometry.Vec3{X: 20, Y: 5, Z: -43},
		GradientScale: 2,
	}
}

// FieldAt implements FieldSource.
func (g Geomagnetic) FieldAt(p geometry.Vec3, _ float64) geometry.Vec3 {
	if stats.IsZero(g.GradientScale) {
		return g.Base
	}
	// A smooth deterministic pseudo-random spatial distortion.
	dx := math.Sin(7*p.X+3*p.Y) * g.GradientScale * (p.Norm())
	dy := math.Sin(5*p.Y+2*p.Z) * g.GradientScale * (p.Norm())
	dz := math.Cos(4*p.Z+6*p.X) * g.GradientScale * (p.Norm())
	return g.Base.Add(geometry.Vec3{X: dx, Y: dy, Z: dz})
}

// Scene aggregates field sources; it is itself a FieldSource.
type Scene struct {
	sources []FieldSource
}

// NewScene builds a scene from sources.
func NewScene(sources ...FieldSource) *Scene {
	return &Scene{sources: append([]FieldSource(nil), sources...)}
}

// Add appends a source.
func (s *Scene) Add(src FieldSource) { s.sources = append(s.sources, src) }

// FieldAt sums all source contributions.
// unit: t s
func (s *Scene) FieldAt(p geometry.Vec3, t float64) geometry.Vec3 {
	var b geometry.Vec3
	for _, src := range s.sources {
		b = b.Add(src.FieldAt(p, t))
	}
	return b
}

// OnAxisDipoleField returns the on-axis field magnitude in µT of a dipole
// with moment m (A·m²) at distance r meters: B = 2·(µ0/4π)·m/r³. Useful
// for calibrating catalog entries.
// unit: moment A*m^2, r m
func OnAxisDipoleField(moment, r float64) float64 {
	if r < 1e-6 {
		r = 1e-6
	}
	return 2 * Mu0Over4Pi * moment / (r * r * r)
}

// Interference is broadband magnetic noise from electronics: mains-hum
// harmonics plus filtered white noise, with amplitude falling off with
// distance from the emitting appliance.
type Interference struct {
	// Position is the appliance location.
	Position geometry.Vec3
	// AmplitudeAt1m is the RMS disturbance in µT at one meter.
	AmplitudeAt1m float64 // unit: µT
	// MainsHz is the mains frequency (50 or 60 Hz).
	MainsHz float64
	// Falloff is the distance exponent (2 for near-field appliances).
	Falloff float64 // unit: dimensionless
	// rng drives the stochastic component; seeded via NewInterference.
	rng *rand.Rand
	// phase offsets give each instance a distinct hum phase.
	phase [3]float64
}

// NewInterference constructs an interference source with a deterministic
// noise stream.
// unit: ampAt1m uT, falloff dimensionless
func NewInterference(pos geometry.Vec3, ampAt1m, mainsHz, falloff float64, seed int64) *Interference {
	rng := rand.New(rand.NewSource(seed))
	i := &Interference{
		Position:      pos,
		AmplitudeAt1m: ampAt1m,
		MainsHz:       mainsHz,
		Falloff:       falloff,
		rng:           rng,
	}
	for k := range i.phase {
		i.phase[k] = rng.Float64() * 2 * math.Pi
	}
	return i
}

// FieldAt implements FieldSource.
// unit: t s
func (i *Interference) FieldAt(p geometry.Vec3, t float64) geometry.Vec3 {
	d := p.Dist(i.Position)
	if d < 0.05 {
		d = 0.05
	}
	amp := i.AmplitudeAt1m / math.Pow(d, i.Falloff)
	w := 2 * math.Pi * i.MainsHz
	// Mains fundamental + 3rd harmonic + stochastic broadband term.
	hum := math.Sin(w*t+i.phase[0]) + 0.4*math.Sin(3*w*t+i.phase[1])
	broadband := 0.3 * i.rng.NormFloat64()
	v := amp * (hum + broadband)
	// Distribute across axes with fixed proportions derived from phase.
	return geometry.Vec3{
		X: v * math.Cos(i.phase[2]),
		Y: v * math.Sin(i.phase[2]),
		Z: v * 0.5,
	}
}
