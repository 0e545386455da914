package trajectory

import (
	"fmt"
	"math"
	"math/rand"

	"voiceguard/internal/audio"
	"voiceguard/internal/fusion"
	"voiceguard/internal/geometry"
	"voiceguard/internal/magnetics"
	"voiceguard/internal/ranging"
	"voiceguard/internal/sensors"
	"voiceguard/internal/stats"
)

// GestureConfig describes one simulated verification gesture: the motion,
// the magnetic scene it happens in, and the acoustic ranging channel.
type GestureConfig struct {
	// UseCase is the scripted motion.
	UseCase UseCase
	// Scene is the magnetic environment (ambient plus any loudspeaker
	// sources). Nil means a quiet default environment.
	Scene magnetics.FieldSource
	// PhoneZ is the height of the motion plane in meters.
	PhoneZ float64 // unit: m
	// Channel is the acoustic ranging channel; the zero value selects
	// ranging.DefaultChannel.
	Channel ranging.ChannelConfig
	// EchoDist overrides the echo path distance function; nil uses the
	// true phone→source distance of the use case. ranging.Simulate calls
	// it from several goroutines at once, so it must be pure: a function
	// of t alone, with no state it writes.
	EchoDist func(t float64) float64
	// MagOffset is how far the magnetometer sits ahead of the phone
	// center toward the source, in meters. On the paper's test phones
	// the AK8975 is at the top edge, which points at the mouth during
	// the gesture; default 0.03.
	MagOffset float64 // unit: m
	// Seed drives all sensor noise for this gesture.
	Seed int64
}

// Gesture is the full sensor record of one verification attempt — what a
// real client app would upload to the server.
type Gesture struct {
	// Gyro, Accel and Mag are the raw sensor traces. Mag is in the
	// phone frame; its magnitude is orientation-invariant and drives
	// loudspeaker detection, while heading fusion consumes it with the
	// phone-frame convention (fusion.Config.MagSign = -1).
	Gyro, Accel, Mag *sensors.Trace
	// LinAccel is the gravity-removed accelerometer trace.
	LinAccel *sensors.Trace
	// Capture is the microphone recording of the ranging pilot.
	Capture *audio.Signal
	// Disp is the recovered acoustic radial displacement.
	Disp *ranging.Displacement
	// Heading is the fused heading estimate.
	Heading *fusion.HeadingEstimate
	// SweepStart and SweepEnd bound the sweep segment in seconds.
	SweepStart, SweepEnd float64 // unit: s
}

// gravityMS2 is standard gravity in m/s².
const gravityMS2 = 9.80665

// SimulateGesture renders the complete sensor record of a gesture.
func SimulateGesture(cfg GestureConfig) (*Gesture, error) {
	if err := cfg.UseCase.Validate(); err != nil {
		return nil, err
	}
	scene := cfg.Scene
	if scene == nil {
		scene = magnetics.NewEnvironment(magnetics.EnvQuiet, cfg.Seed)
	}
	ch := cfg.Channel
	if stats.IsZero(ch.Freq) && stats.IsZero(ch.Rate) {
		ch = ranging.DefaultChannel()
	}
	echo := cfg.EchoDist
	if echo == nil {
		echo = cfg.UseCase.DistanceAt
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dur := cfg.UseCase.Duration()

	gyroSensor := sensors.New(sensors.PhoneGyroscope(), rng)
	accelSensor := sensors.New(sensors.PhoneAccelerometer(), rng)
	magSensor := sensors.New(sensors.AK8975(), rng)

	gyro, err := gyroSensor.Record(dur, func(t float64) geometry.Vec3 {
		return geometry.Vec3{Z: cfg.UseCase.TurnRateAt(t)}
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: recording gyro: %w", err)
	}
	accel, err := accelSensor.Record(dur, func(t float64) geometry.Vec3 {
		a := cfg.UseCase.AccelAt(t)
		return geometry.Vec3{X: a.X, Y: a.Y, Z: gravityMS2}
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: recording accel: %w", err)
	}
	magOffset := cfg.MagOffset
	if stats.IsZero(magOffset) {
		magOffset = 0.03
	}
	mag, err := magSensor.Record(dur, func(t float64) geometry.Vec3 {
		p := cfg.UseCase.PositionAt(t)
		theta := cfg.UseCase.HeadingAt(t)
		// The sensor sits ahead of the phone center along the heading.
		sp := p.Add(geometry.Vec2{X: math.Cos(theta), Y: math.Sin(theta)}.Scale(magOffset))
		world := scene.FieldAt(geometry.Vec3{X: sp.X, Y: sp.Y, Z: cfg.PhoneZ}, t)
		// Rotate the horizontal components into the phone frame.
		c, s := math.Cos(theta), math.Sin(theta)
		return geometry.Vec3{
			X: c*world.X + s*world.Y,
			Y: -s*world.X + c*world.Y,
			Z: world.Z,
		}
	})
	if err != nil {
		return nil, fmt.Errorf("trajectory: recording magnetometer: %w", err)
	}

	capture, err := ranging.Simulate(ch, dur, echo, rng)
	if err != nil {
		return nil, fmt.Errorf("trajectory: simulating ranging channel: %w", err)
	}
	disp, err := ranging.Recover(capture, ranging.RecoverConfig{Freq: ch.Freq})
	if err != nil {
		return nil, fmt.Errorf("trajectory: recovering displacement: %w", err)
	}
	heading, err := fusion.EstimateHeading(gyro, mag, fusion.Config{MagSign: -1})
	if err != nil {
		return nil, fmt.Errorf("trajectory: fusing heading: %w", err)
	}
	linAccel := fusion.RemoveGravity(accel, func(float64) (float64, float64, float64) {
		return 0, 0, gravityMS2
	})
	return &Gesture{
		Gyro:       gyro,
		Accel:      accel,
		Mag:        mag,
		LinAccel:   linAccel,
		Capture:    capture,
		Disp:       disp,
		Heading:    heading,
		SweepStart: cfg.UseCase.ApproachDur,
		SweepEnd:   cfg.UseCase.Duration(),
	}, nil
}

// Estimate runs the distance estimator over the gesture's sweep segment.
func (g *Gesture) Estimate() (Estimate, error) {
	return EstimateDistance(g.Heading, g.LinAccel, g.Disp, g.SweepStart, g.SweepEnd)
}

// uploadPhasors holds the pilot phasor table that FromUpload's
// displacement recovery reads. Every session a server rebuilds demodulates
// the pilot its clients send, so the table is built once per process;
// SimulateGesture models one phone's capture and keeps none. A table is
// a pure function of the pilot, so sharing it changes no result.
var uploadPhasors ranging.PhasorCache

// FromUpload reconstructs a Gesture from raw uploaded traces and the
// ranging capture — the server-side path: heading fusion, gravity
// removal and displacement recovery are re-run on the received data.
// unit: pilotHz Hz, sweepStart s, sweepEnd s
func FromUpload(gyro, accel, mag *sensors.Trace, capture *audio.Signal, pilotHz, sweepStart, sweepEnd float64) (*Gesture, error) {
	if gyro == nil || accel == nil || mag == nil || capture == nil {
		return nil, fmt.Errorf("trajectory: upload missing traces")
	}
	heading, err := fusion.EstimateHeading(gyro, mag, fusion.Config{MagSign: -1})
	if err != nil {
		return nil, fmt.Errorf("trajectory: fusing uploaded heading: %w", err)
	}
	disp, err := uploadPhasors.Recover(capture, ranging.RecoverConfig{Freq: pilotHz})
	if err != nil {
		return nil, fmt.Errorf("trajectory: recovering uploaded displacement: %w", err)
	}
	linAccel := fusion.RemoveGravity(accel, func(float64) (float64, float64, float64) {
		return 0, 0, gravityMS2
	})
	return &Gesture{
		Gyro:       gyro,
		Accel:      accel,
		Mag:        mag,
		LinAccel:   linAccel,
		Capture:    capture,
		Disp:       disp,
		Heading:    heading,
		SweepStart: sweepStart,
		SweepEnd:   sweepEnd,
	}, nil
}
