package ranging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/dsp"
)

func TestCalibratePilot(t *testing.T) {
	// A speaker with a 20 kHz corner should calibrate to the highest
	// candidate at or below the corner region.
	resp := SpeakerRolloff(20000)
	got := CalibratePilot(resp, DefaultPilotCandidates(), 0.7)
	if got < 19500 || got > 21000 {
		t.Errorf("calibrated pilot = %v, want ≈20 kHz", got)
	}
	// A weaker speaker calibrates lower.
	low := CalibratePilot(SpeakerRolloff(17500), DefaultPilotCandidates(), 0.7)
	if low >= got {
		t.Errorf("weak speaker pilot %v not below strong %v", low, got)
	}
	if low < 16000 {
		t.Errorf("pilot %v below the inaudible floor", low)
	}
	// No candidate qualifies → 0.
	if CalibratePilot(func(float64) float64 { return 0 }, DefaultPilotCandidates(), 0.5) != 0 {
		t.Error("dead loop should calibrate to 0")
	}
	// Negative candidates ignored.
	if CalibratePilot(resp, []float64{-1, 0}, 0.5) != 0 {
		t.Error("invalid candidates should calibrate to 0")
	}
}

func TestSpeakerRolloffShape(t *testing.T) {
	resp := SpeakerRolloff(19000)
	if resp(15000) != 1 {
		t.Error("below corner should be flat")
	}
	// One octave above: −48 dB ≈ 0.004.
	if g := resp(38000); math.Abs(g-0.00398) > 0.0005 {
		t.Errorf("octave-above gain = %v", g)
	}
	if resp(20000) >= resp(19000) {
		t.Error("response must fall above the corner")
	}
}

func TestPilotProperties(t *testing.T) {
	p := Pilot(DefaultPilotHz, DefaultRate, 0.5)
	if p.Len() != 24000 {
		t.Errorf("len = %d", p.Len())
	}
	if math.Abs(p.Peak()-0.5) > 1e-3 {
		t.Errorf("peak = %v", p.Peak())
	}
}

func TestSimulateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	still := func(float64) float64 { return 0.1 }
	bad := []ChannelConfig{
		{Freq: 0, Rate: 48000},
		{Freq: 19000, Rate: 0},
		{Freq: 25000, Rate: 48000}, // above Nyquist
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg, 1, still, rng); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Simulate(DefaultChannel(), 0, still, rng); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRecoverLinearMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Phone approaches: distance falls from 12 cm to 6 cm over 1.5 s.
	dist := func(tt float64) float64 { return 0.12 - 0.04*tt }
	capture, err := Simulate(DefaultChannel(), 1.5, dist, rng)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := Recover(capture, RecoverConfig{Freq: DefaultPilotHz})
	if err != nil {
		t.Fatal(err)
	}
	// Net displacement should be -6 cm within a few millimeters.
	if math.Abs(disp.Total()-(-0.06)) > 0.004 {
		t.Errorf("total displacement = %v, want -0.06", disp.Total())
	}
	// Midpoint displacement ≈ -3 cm.
	if got := disp.At(0.75); math.Abs(got-(-0.03)) > 0.004 {
		t.Errorf("mid displacement = %v, want -0.03", got)
	}
}

func TestRecoverSinusoidalMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Oscillation of ±1.5 cm at 1.2 Hz around 8 cm.
	dist := func(tt float64) float64 { return 0.08 + 0.015*math.Sin(2*math.Pi*1.2*tt) }
	capture, err := Simulate(DefaultChannel(), 2, dist, rng)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := Recover(capture, RecoverConfig{Freq: DefaultPilotHz})
	if err != nil {
		t.Fatal(err)
	}
	// Compare recovered track against truth (both relative to start).
	var worst float64
	for i, tt := range disp.T {
		want := dist(tt) - dist(disp.T[0])
		if e := math.Abs(disp.Dr[i] - want); e > worst {
			worst = e
		}
	}
	if worst > 0.005 {
		t.Errorf("worst tracking error = %v m", worst)
	}
}

func TestRecoverStationaryIsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	capture, err := Simulate(DefaultChannel(), 1, func(float64) float64 { return 0.08 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := Recover(capture, RecoverConfig{Freq: DefaultPilotHz})
	if err != nil {
		t.Fatal(err)
	}
	// A static scene has no meaningful dynamic phasor; displacement should
	// stay bounded (noise-driven phase walk, not systematic motion).
	for i, dr := range disp.Dr {
		if math.Abs(dr) > 0.01 {
			t.Errorf("stationary drift at block %d: %v m", i, dr)
			break
		}
	}
}

// TestRecoverErrors also checks that a capture whose rate, pilot or
// samples cannot yield a phase track is an error rather than a NaN or
// aliased displacement the distance stage would score.
func TestRecoverErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	capture, err := Simulate(DefaultChannel(), 1, func(float64) float64 { return 0.1 }, rng)
	if err != nil {
		t.Fatal(err)
	}
	short := Pilot(19000, 48000, 0.005)
	if _, err := Recover(short, RecoverConfig{Freq: 19000}); !errors.Is(err, ErrCaptureTooShort) {
		t.Errorf("short capture err = %v", err)
	}
	withRate := func(rate float64) *audio.Signal {
		return &audio.Signal{Rate: rate, Samples: capture.Samples}
	}
	withSample := func(i int, v float64) *audio.Signal {
		s := capture.Clone()
		s.Samples[i] = v
		return s
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		capture *audio.Signal
		cfg     RecoverConfig
	}{
		{"zero freq", capture, RecoverConfig{Freq: 0}},
		{"tiny block", capture, RecoverConfig{Freq: 19000, BlockSize: 8}},
		{"rate 0", withRate(0), RecoverConfig{Freq: DefaultPilotHz}},
		{"negative rate", withRate(-48000), RecoverConfig{Freq: DefaultPilotHz}},
		{"NaN rate", withRate(nan), RecoverConfig{Freq: DefaultPilotHz}},
		{"+Inf rate", withRate(inf), RecoverConfig{Freq: DefaultPilotHz}},
		{"NaN pilot", capture, RecoverConfig{Freq: nan}},
		{"+Inf pilot", capture, RecoverConfig{Freq: inf}},
		{"-Inf pilot", capture, RecoverConfig{Freq: -inf}},
		{"pilot at Nyquist", capture, RecoverConfig{Freq: DefaultRate / 2}},
		{"pilot above Nyquist", capture, RecoverConfig{Freq: 30000}},
		{"NaN sample", withSample(1000, nan), RecoverConfig{Freq: DefaultPilotHz}},
		{"+Inf sample", withSample(capture.Len()/2, inf), RecoverConfig{Freq: DefaultPilotHz}},
	}
	for _, tc := range cases {
		if d, err := Recover(tc.capture, tc.cfg); err == nil {
			t.Errorf("%s: recovered %d blocks, want an error", tc.name, len(d.Dr))
		}
	}
}

// recoverSerialOracle is Recover as it stood before the Sincos rewrite
// and the block fan-out: separate Cos and Sin per sample, blocks in
// order on one goroutine. It is the bit-exactness reference.
func recoverSerialOracle(capture *audio.Signal, cfg RecoverConfig) *Displacement {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 256
	}
	n := len(capture.Samples) / cfg.BlockSize
	w := 2 * math.Pi * cfg.Freq / capture.Rate
	iq := make([]complex128, n)
	for b := 0; b < n; b++ {
		var re, im float64
		off := b * cfg.BlockSize
		for k := 0; k < cfg.BlockSize; k++ {
			v := capture.Samples[off+k]
			ph := w * float64(off+k)
			re += v * math.Cos(ph)
			im += v * -math.Sin(ph)
		}
		iq[b] = complex(re, im)
	}
	var mean complex128
	for _, z := range iq {
		mean += z
	}
	mean /= complex(float64(n), 0)
	steps := make([]float64, 0, n-1)
	for b := 1; b < n; b++ {
		d := iq[b] - iq[b-1]
		steps = append(steps, math.Hypot(real(d), imag(d)))
	}
	insertionSortFloats(steps)
	gate := 0.0
	if len(steps) > 0 {
		gate = 3 * steps[len(steps)/2] / math.Sqrt2
	}
	phase := make([]float64, n)
	var prev float64
	for b, z := range iq {
		d := z - mean
		if math.Hypot(real(d), imag(d)) < gate {
			phase[b] = prev
			continue
		}
		phase[b] = math.Atan2(imag(d), real(d))
		prev = phase[b]
	}
	dsp.Unwrap(phase)
	lambda := SpeedOfSound / cfg.Freq
	out := &Displacement{T: make([]float64, n), Dr: make([]float64, n)}
	for b := 0; b < n; b++ {
		out.T[b] = (float64(b) + 0.5) * float64(cfg.BlockSize) / capture.Rate
		out.Dr[b] = -(phase[b] - phase[0]) * lambda / (4 * math.Pi)
	}
	return out
}

// TestRecoverParallelMatchesSerialLoop is the differential check on the
// demodulator: at any GOMAXPROCS (CI runs it at -cpu=1,4 under -race)
// every T and Dr must carry the same bits as the serial Sin/Cos loop.
// The captures cover the serial fallback (fewer blocks than the fan-out
// threshold), the served 2.5 s gesture, a length that is not a whole
// number of blocks, a 60 s capture, every calibration pilot at 44.1 and
// 48 kHz, and block sizes 16, 256 and 1000.
func TestRecoverParallelMatchesSerialLoop(t *testing.T) {
	approach := func(tt float64) float64 { return 0.12 - 0.01*tt }
	simulate := func(t *testing.T, freq, rate, seconds float64, seed int64) *audio.Signal {
		t.Helper()
		ch := DefaultChannel()
		ch.Freq, ch.Rate = freq, rate
		capture, err := Simulate(ch, seconds, approach, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return capture
	}
	check := func(t *testing.T, name string, capture *audio.Signal, cfg RecoverConfig) {
		t.Helper()
		got, err := Recover(capture, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := recoverSerialOracle(capture, cfg)
		if len(got.T) != len(want.T) || len(got.Dr) != len(want.Dr) {
			t.Fatalf("%s: %d/%d blocks, oracle %d/%d", name, len(got.T), len(got.Dr), len(want.T), len(want.Dr))
		}
		for b := range want.T {
			if math.Float64bits(got.T[b]) != math.Float64bits(want.T[b]) ||
				math.Float64bits(got.Dr[b]) != math.Float64bits(want.Dr[b]) {
				t.Fatalf("%s: block %d (T, Dr) = (%v, %v), oracle (%v, %v)",
					name, b, got.T[b], got.Dr[b], want.T[b], want.Dr[b])
			}
		}
	}

	served := simulate(t, DefaultPilotHz, DefaultRate, 2.5, 11)
	if served.Len() != 120000 {
		t.Fatalf("served capture has %d samples, want 120000", served.Len())
	}
	ragged := simulate(t, DefaultPilotHz, DefaultRate, 2.5+77/DefaultRate, 12)
	for _, bs := range []int{16, 256, 1000} {
		// Five blocks stay under the fan-out threshold: the serial
		// fallback runs on the caller's goroutine.
		few := &audio.Signal{Rate: DefaultRate, Samples: served.Samples[:5*bs+bs/2]}
		check(t, fmt.Sprintf("5 blocks bs=%d", bs), few, RecoverConfig{Freq: DefaultPilotHz, BlockSize: bs})
		check(t, fmt.Sprintf("served bs=%d", bs), served, RecoverConfig{Freq: DefaultPilotHz, BlockSize: bs})
		check(t, fmt.Sprintf("ragged bs=%d", bs), ragged, RecoverConfig{Freq: DefaultPilotHz, BlockSize: bs})
	}
	check(t, "0.05 s", simulate(t, DefaultPilotHz, DefaultRate, 0.05, 13), RecoverConfig{Freq: DefaultPilotHz})
	check(t, "60 s", simulate(t, DefaultPilotHz, DefaultRate, 60, 14), RecoverConfig{Freq: DefaultPilotHz})
	for _, rate := range []float64{44100, 48000} {
		for i, f := range DefaultPilotCandidates() {
			capture := simulate(t, f, rate, 2.5, int64(100+i))
			check(t, fmt.Sprintf("pilot %v Hz at %v Hz", f, rate), capture, RecoverConfig{Freq: f})
		}
	}
}

func TestDisplacementAtClamps(t *testing.T) {
	d := &Displacement{T: []float64{0, 1}, Dr: []float64{0, 2}}
	if d.At(-1) != 0 || d.At(5) != 2 {
		t.Error("At should clamp")
	}
	if got := d.At(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("At(0.5) = %v", got)
	}
	empty := &Displacement{}
	if empty.At(1) != 0 || empty.Total() != 0 {
		t.Error("empty displacement should return zeros")
	}
}

func TestFig6SpectrogramShowsPilot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dist := func(tt float64) float64 { return 0.12 - 0.04*tt }
	capture, err := Simulate(DefaultChannel(), 1, dist, rng)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpectrogramOfCapture(capture)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < sp.NumFrames(); f += 20 {
		bin, mag := sp.PeakBin(f, 16000, 24000)
		if bin < 0 || mag <= 0 {
			t.Fatalf("frame %d: pilot not visible", f)
		}
		if got := sp.BinFreq(bin); math.Abs(got-DefaultPilotHz) > 100 {
			t.Errorf("frame %d: peak at %v Hz", f, got)
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// The served gesture capture: 2.5 s at 48 kHz, 120 000 samples.
	capture, err := Simulate(DefaultChannel(), 2.5, func(tt float64) float64 { return 0.12 - 0.04*tt }, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := RecoverConfig{Freq: DefaultPilotHz}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(capture, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
