package fusion

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/geometry"
	"voiceguard/internal/sensors"
)

// makeTraces simulates a rotation profile theta(t) and produces gyro and
// magnetometer traces for it. The magnetometer sees a fixed horizontal
// field rotated by -theta in the phone frame (so its heading is +theta).
func makeTraces(t *testing.T, dur float64, theta func(float64) float64, seed int64) (gyro, mag *sensors.Trace) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gs := sensors.New(sensors.PhoneGyroscope(), rng)
	ms := sensors.New(sensors.Spec{Name: "mag", NoiseRMS: 0.35, SampleRate: 100}, rng)
	const dt = 1e-3
	rate := func(tt float64) float64 { return (theta(tt+dt) - theta(tt-dt)) / (2 * dt) }
	var err error
	gyro, err = gs.Record(dur, func(tt float64) geometry.Vec3 {
		return geometry.Vec3{Z: rate(tt)}
	})
	if err != nil {
		t.Fatal(err)
	}
	mag, err = ms.Record(dur, func(tt float64) geometry.Vec3 {
		a := theta(tt)
		// Horizontal field of 30 µT at heading a.
		return geometry.Vec3{X: 30 * math.Cos(a), Y: 30 * math.Sin(a), Z: -40}
	})
	if err != nil {
		t.Fatal(err)
	}
	return gyro, mag
}

func TestEstimateHeadingTracksTruth(t *testing.T) {
	truth := func(tt float64) float64 { return 0.3 + 1.2*math.Sin(1.5*tt) }
	gyro, mag := makeTraces(t, 3, truth, 1)
	est, err := EstimateHeading(gyro, mag, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i, tt := range est.T {
		e := math.Abs(est.Theta[i] - truth(tt))
		if e > worst {
			worst = e
		}
	}
	if worst > 0.08 {
		t.Errorf("worst heading error = %v rad", worst)
	}
}

func TestEstimateHeadingTotalTurn(t *testing.T) {
	truth := func(tt float64) float64 { return 0.8 * tt } // steady turn
	gyro, mag := makeTraces(t, 2, truth, 2)
	est, err := EstimateHeading(gyro, mag, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if turn := est.Theta[len(est.Theta)-1] - est.Theta[0]; math.Abs(turn-1.6) > 0.1 {
		t.Errorf("total turn = %v, want ≈1.6", turn)
	}
}

func TestEstimateHeadingUnwrapsAcrossPi(t *testing.T) {
	// Rotation passing through ±π must not produce 2π jumps.
	truth := func(tt float64) float64 { return 2.5 + 1.5*tt }
	gyro, mag := makeTraces(t, 2, truth, 3)
	est, err := EstimateHeading(gyro, mag, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(est.Theta); i++ {
		if math.Abs(est.Theta[i]-est.Theta[i-1]) > 0.5 {
			t.Fatalf("heading jump at %d: %v -> %v", i, est.Theta[i-1], est.Theta[i])
		}
	}
}

func TestEstimateHeadingCorrectsGyroDrift(t *testing.T) {
	// A biased gyro drifts; the magnetometer correction should bound the
	// error. Build traces with a deliberate extra gyro bias.
	rng := rand.New(rand.NewSource(4))
	gspec := sensors.PhoneGyroscope()
	gspec.BiasRMS = 0 // we'll inject a known bias instead
	gs := sensors.New(gspec, rng)
	ms := sensors.New(sensors.Spec{Name: "mag", NoiseRMS: 0.35, SampleRate: 100}, rng)
	truth := func(tt float64) float64 { return 0.5 * math.Sin(tt) }
	const bias = 0.08 // rad/s — large drift: 0.8 rad over 10 s
	gyro, err := gs.Record(10, func(tt float64) geometry.Vec3 {
		const dt = 1e-3
		rate := (truth(tt+dt) - truth(tt-dt)) / (2 * dt)
		return geometry.Vec3{Z: rate + bias}
	})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := ms.Record(10, func(tt float64) geometry.Vec3 {
		a := truth(tt)
		return geometry.Vec3{X: 30 * math.Cos(a), Y: 30 * math.Sin(a), Z: -40}
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateHeading(gyro, mag, Config{})
	if err != nil {
		t.Fatal(err)
	}
	finalErr := math.Abs(est.Theta[len(est.Theta)-1] - truth(10))
	if finalErr > 0.15 {
		t.Errorf("drift-corrected final error = %v rad (pure gyro would be ≈0.8)", finalErr)
	}
}

func TestEstimateHeadingErrors(t *testing.T) {
	gyro, mag := makeTraces(t, 1, func(tt float64) float64 { return 0 }, 5)
	cases := []struct {
		g, m *sensors.Trace
	}{
		{nil, mag},
		{gyro, nil},
		{&sensors.Trace{}, mag},
		{gyro, &sensors.Trace{}},
	}
	for i, tc := range cases {
		if _, err := EstimateHeading(tc.g, tc.m, Config{}); !errors.Is(err, ErrMismatchedTraces) {
			t.Errorf("case %d: err = %v, want ErrMismatchedTraces", i, err)
		}
	}
}

func TestThetaOmegaAtInterpolation(t *testing.T) {
	est := &HeadingEstimate{
		T:     []float64{0, 1, 2},
		Theta: []float64{0, 2, 2},
		Omega: []float64{1, 1, 0},
	}
	if got := est.ThetaAt(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("ThetaAt(0.5) = %v", got)
	}
	if got := est.ThetaAt(-1); got != 0 {
		t.Errorf("clamp low = %v", got)
	}
	if got := est.ThetaAt(99); got != 2 {
		t.Errorf("clamp high = %v", got)
	}
	if got := est.OmegaAt(1.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OmegaAt(1.5) = %v", got)
	}
	empty := &HeadingEstimate{}
	if empty.ThetaAt(1) != 0 {
		t.Error("empty estimate should return zeros")
	}
}

func TestRemoveGravity(t *testing.T) {
	tr := &sensors.Trace{Name: "acc", Samples: []sensors.Sample{
		{T: 0, V: geometry.Vec3{X: 1, Y: 2, Z: 9.81}},
		{T: 0.01, V: geometry.Vec3{X: 0, Y: 0, Z: 9.81}},
	}}
	lin := RemoveGravity(tr, func(float64) (float64, float64, float64) { return 0, 0, 9.81 })
	if lin.Samples[0].V.Z != 0 || lin.Samples[1].V.Z != 0 {
		t.Errorf("gravity not removed: %v", lin.Samples)
	}
	if lin.Samples[0].V.X != 1 {
		t.Error("other axes must be preserved")
	}
	if tr.Samples[0].V.Z != 9.81 {
		t.Error("input trace must not be mutated")
	}
}
