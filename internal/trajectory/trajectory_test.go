package trajectory

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"voiceguard/internal/geometry"
	"voiceguard/internal/magnetics"
	"voiceguard/internal/ranging"
)

func TestUseCaseValidate(t *testing.T) {
	good := StandardUseCase(0.06)
	if err := good.Validate(); err != nil {
		t.Fatalf("standard use case invalid: %v", err)
	}
	bad := []func(*UseCase){
		func(u *UseCase) { u.FinalDistance = 0 },
		func(u *UseCase) { u.ApproachDur = 0 },
		func(u *UseCase) { u.SweepDur = 0 },
		func(u *UseCase) { u.SweepHalfAngle = 0 },
		func(u *UseCase) { u.SweepHalfAngle = 4 },
		func(u *UseCase) { u.StartPos = u.SourcePos },
	}
	for i, mut := range bad {
		u := StandardUseCase(0.06)
		mut(&u)
		if err := u.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestUseCaseGeometry(t *testing.T) {
	u := StandardUseCase(0.06)
	// Start at the start.
	if u.PositionAt(0).Dist(u.StartPos) > 1e-9 {
		t.Error("position at t=0 should be StartPos")
	}
	if u.PositionAt(-1).Dist(u.StartPos) > 1e-9 {
		t.Error("positions before t=0 clamp to start")
	}
	// After the approach, distance equals FinalDistance and stays there.
	for _, tt := range []float64{u.ApproachDur, u.ApproachDur + 0.5, u.Duration()} {
		if d := u.DistanceAt(tt); math.Abs(d-0.06) > 1e-9 {
			t.Errorf("t=%v: distance %v, want 0.06", tt, d)
		}
	}
	// Approach is monotone toward the source.
	prev := u.DistanceAt(0)
	for tt := 0.1; tt <= u.ApproachDur; tt += 0.1 {
		d := u.DistanceAt(tt)
		if d > prev+1e-9 {
			t.Fatalf("approach not monotone at %v", tt)
		}
		prev = d
	}
	// Heading always points at the source.
	for tt := 0.0; tt < u.Duration(); tt += 0.2 {
		p := u.PositionAt(tt)
		want := u.SourcePos.Sub(p).Angle()
		if math.Abs(u.HeadingAt(tt)-want) > 1e-9 {
			t.Fatalf("heading at %v wrong", tt)
		}
	}
}

func TestUseCaseSweepCoversArc(t *testing.T) {
	u := StandardUseCase(0.06)
	var minAng, maxAng float64
	first := true
	for ts := 0.0; ts <= u.SweepDur; ts += 0.01 {
		a := u.sweepAngle(ts)
		if first {
			minAng, maxAng = a, a
			first = false
		}
		minAng = math.Min(minAng, a)
		maxAng = math.Max(maxAng, a)
	}
	if math.Abs(maxAng-u.SweepHalfAngle) > 1e-3 || math.Abs(minAng+u.SweepHalfAngle) > 1e-3 {
		t.Errorf("sweep covers [%v, %v], want ±%v", minAng, maxAng, u.SweepHalfAngle)
	}
}

func TestCentripetalConsistency(t *testing.T) {
	// During the sweep at turn-rate peaks, |a| ≈ r·ω².
	u := StandardUseCase(0.06)
	tt := u.ApproachDur + u.SweepDur/2 // α=0 crossing: peak ω, zero tangential
	a := u.AccelAt(tt).Norm()
	w := u.TurnRateAt(tt)
	r := a / (w * w)
	if math.Abs(r-0.06) > 0.005 {
		t.Errorf("centripetal radius = %v, want 0.06", r)
	}
}

func TestSimulateGestureAndEstimate(t *testing.T) {
	for _, dist := range []float64{0.04, 0.06, 0.10} {
		g, err := SimulateGesture(GestureConfig{
			UseCase: StandardUseCase(dist),
			Seed:    7,
		})
		if err != nil {
			t.Fatalf("dist %v: %v", dist, err)
		}
		est, err := g.Estimate()
		if err != nil {
			t.Fatalf("dist %v: %v", dist, err)
		}
		if math.Abs(est.Distance-dist) > 0.25*dist {
			t.Errorf("dist %v: estimate %v (>25%% off)", dist, est.Distance)
		}
		if est.Turn < 1.0 {
			t.Errorf("dist %v: turn %v too small", dist, est.Turn)
		}
		// A genuine source-centered sweep keeps the acoustic radius steady.
		if est.SweepRadialStd > 0.01 {
			t.Errorf("dist %v: sweep radial std %v", dist, est.SweepRadialStd)
		}
	}
}

func TestEstimateDetectsFakePivot(t *testing.T) {
	// Attack: the phone performs the gesture around a fake pivot 6 cm in
	// front of it, but the actual sound source (loudspeaker) is 20 cm
	// away. The acoustic echo then tracks the distant speaker, whose
	// radial distance varies during the sweep.
	u := StandardUseCase(0.06)
	speakerPos := geometry.Vec2{X: -0.20, Y: 0}
	g, err := SimulateGesture(GestureConfig{
		UseCase: u,
		Seed:    8,
		EchoDist: func(t float64) float64 {
			return u.PositionAt(t).Dist(speakerPos)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := g.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	genuine, err := SimulateGesture(GestureConfig{UseCase: u, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gEst, err := genuine.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.SweepRadialStd < 3*gEst.SweepRadialStd {
		t.Errorf("fake pivot radial std %v not well above genuine %v",
			est.SweepRadialStd, gEst.SweepRadialStd)
	}
}

func TestEstimateDistanceErrors(t *testing.T) {
	g, err := SimulateGesture(GestureConfig{UseCase: StandardUseCase(0.06), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateDistance(nil, g.LinAccel, g.Disp, 1, 2); err == nil {
		t.Error("nil heading accepted")
	}
	if _, err := EstimateDistance(g.Heading, g.LinAccel, g.Disp, 2, 1); err == nil {
		t.Error("empty window accepted")
	}
	// A window inside the (motionless) pre-sweep segment lacks turning.
	if _, err := EstimateDistance(g.Heading, g.LinAccel, g.Disp, 0.0, 0.2); !errors.Is(err, ErrInsufficientMotion) {
		t.Errorf("err = %v, want ErrInsufficientMotion", err)
	}
}

func TestSimulateGestureInvalidUseCase(t *testing.T) {
	u := StandardUseCase(0.06)
	u.FinalDistance = 0
	if _, err := SimulateGesture(GestureConfig{UseCase: u}); err == nil {
		t.Error("invalid use case accepted")
	}
}

func TestGestureMagnetometerSeesLoudspeaker(t *testing.T) {
	// With a loudspeaker at the source position, the magnetometer
	// magnitude deviates strongly from the ambient baseline; without it,
	// it stays near the geomagnetic level.
	u := StandardUseCase(0.05)
	ambient := magnetics.NewEnvironment(magnetics.EnvQuiet, 3)

	quiet, err := SimulateGesture(GestureConfig{UseCase: u, Scene: ambient, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	speaker := magnetics.NewEnvironment(magnetics.EnvQuiet, 3)
	speaker.Add(magnetics.Dipole{
		Position: geometry.Vec3{X: u.SourcePos.X, Y: u.SourcePos.Y, Z: 0},
		Moment:   geometry.Vec3{X: 0.06},
	})
	attacked, err := SimulateGesture(GestureConfig{UseCase: u, Scene: speaker, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	rangeOf := func(m []float64) float64 {
		lo, hi := m[0], m[0]
		for _, v := range m {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	quietRange := rangeOf(quiet.Mag.Magnitudes())
	attackRange := rangeOf(attacked.Mag.Magnitudes())
	if attackRange < quietRange+20 {
		t.Errorf("loudspeaker should swing the magnitude: quiet %v, attack %v", quietRange, attackRange)
	}
}

func BenchmarkSimulateGesture(b *testing.B) {
	cfg := GestureConfig{UseCase: StandardUseCase(0.06), Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateGesture(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateDistance(b *testing.B) {
	g, err := SimulateGesture(GestureConfig{UseCase: StandardUseCase(0.06), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Estimate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromUpload times the server-side gesture rebuild on the
// standard genuine gesture (a 2.5 s, 48 kHz ranging capture): heading
// fusion, gravity removal and the pilot demodulation, whose phasors
// come from the table the first iteration builds.
func BenchmarkFromUpload(b *testing.B) {
	g, err := SimulateGesture(GestureConfig{UseCase: StandardUseCase(0.06), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromUpload(g.Gyro, g.Accel, g.Mag, g.Capture, ranging.DefaultPilotHz, g.SweepStart, g.SweepEnd); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFromUploadDeterministicAcrossWorkers checks that the server-side
// rebuild recovers the same displacement bits on one worker as on the
// test's GOMAXPROCS (CI runs it at -cpu=1,4 under -race), so the
// distance stage scores the same gesture however many cores serve it.
func TestFromUploadDeterministicAcrossWorkers(t *testing.T) {
	g, err := SimulateGesture(GestureConfig{UseCase: StandardUseCase(0.06), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func() *Gesture {
		t.Helper()
		up, err := FromUpload(g.Gyro, g.Accel, g.Mag, g.Capture, ranging.DefaultPilotHz, g.SweepStart, g.SweepEnd)
		if err != nil {
			t.Fatal(err)
		}
		return up
	}
	got := rebuild()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	serial := rebuild()
	if len(got.Disp.Dr) != len(serial.Disp.Dr) {
		t.Fatalf("%d blocks, serial %d", len(got.Disp.Dr), len(serial.Disp.Dr))
	}
	for i := range serial.Disp.Dr {
		if math.Float64bits(got.Disp.Dr[i]) != math.Float64bits(serial.Disp.Dr[i]) {
			t.Fatalf("block %d: Dr %v at GOMAXPROCS=%d, %v serial", i, got.Disp.Dr[i], prev, serial.Disp.Dr[i])
		}
	}
}
