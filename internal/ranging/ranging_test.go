package ranging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

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

// insertionSortFloats is the noise gate's sort as it stood before
// slices.Sort replaced it; the oracle keeps it so the gate's median is
// checked against the old ordering too.
func insertionSortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
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

// demodulateReference is demodulate before the phasor table: one
// math.Sincos per sample, blocks in order on one goroutine. It is the
// bit-exactness reference for the cached, built and scratch phasors.
func demodulateReference(samples []float64, w float64, blockSize, n int) []complex128 {
	iq := make([]complex128, n)
	for b := 0; b < n; b++ {
		var re, im float64
		off := b * blockSize
		for k, v := range samples[off : off+blockSize] {
			sin, cos := math.Sincos(w * float64(off+k))
			re += v * cos
			im += v * -sin
		}
		iq[b] = complex(re, im)
	}
	return iq
}

// noiseCapture returns n samples of a unit pilot at freq over Gaussian
// noise, at the given rate.
func noiseCapture(freq, rate float64, n int, seed int64) *audio.Signal {
	rng := rand.New(rand.NewSource(seed))
	s := &audio.Signal{Rate: rate, Samples: make([]float64, n)}
	for i := range s.Samples {
		s.Samples[i] = math.Sin(2*math.Pi*freq*float64(i)/rate) + 0.1*rng.NormFloat64()
	}
	return s
}

// cachedTable returns the table a PhasorCache holds, or nil.
func cachedTable(c *PhasorCache) *phasorTable { return c.last.Load() }

// sameIQ fails t unless got and want agree bit for bit.
func sameIQ(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, reference %d", name, len(got), len(want))
	}
	for b := range want {
		if math.Float64bits(real(got[b])) != math.Float64bits(real(want[b])) ||
			math.Float64bits(imag(got[b])) != math.Float64bits(imag(want[b])) {
			t.Fatalf("%s: block %d I/Q = %v, reference %v", name, b, got[b], want[b])
		}
	}
}

// TestDemodulateMatchesSincosReference holds every I/Q value to the
// per-sample Sincos loop, bit for bit, whether its phasors come from
// per-block scratch, a table the demodulation builds, a cached table, or
// scratch past the table cap. CI runs it under -race at -cpu=1,4.
func TestDemodulateMatchesSincosReference(t *testing.T) {
	check := func(t *testing.T, name string, c *PhasorCache, samples []float64, w float64, bs int) {
		t.Helper()
		n := len(samples) / bs
		want := demodulateReference(samples, w, bs, n)
		sameIQ(t, name+", uncached", demodulateUncached(samples, w, bs, n), want)
		sameIQ(t, name, c.demodulate(samples, w, bs, n), want)
	}
	// 2.5 s at 48 kHz, and a capture past the table cap that is not a
	// whole number of blocks.
	served := noiseCapture(DefaultPilotHz, DefaultRate, 120000, 21).Samples
	long := noiseCapture(DefaultPilotHz, DefaultRate, maxTablePhasors+2077, 22).Samples
	pilots := append(DefaultPilotCandidates(), 18321.7)
	for _, rate := range []float64{44100, 48000} {
		for _, f := range pilots {
			w := 2 * math.Pi * f / rate
			var c PhasorCache
			// A short capture builds a short table, a longer one
			// outgrows it and builds again, and the last call hits.
			for _, tc := range []struct {
				name    string
				samples []float64
			}{
				{"ragged 0.05 s", served[:2400+77]},
				{"served", served},
				{"served, cached", served},
			} {
				check(t, fmt.Sprintf("%s, pilot %v Hz at %v Hz", tc.name, f, rate), &c, tc.samples, w, 256)
			}
		}
	}
	// Past the cap: at bs=1000 one block straddles the cap, so it fills
	// the table's tail and then demodulates from scratch; bs=256 then
	// reads that tail from the cached table.
	w := 2 * math.Pi * DefaultPilotHz / DefaultRate
	for _, sizes := range [][]int{{1000, 256, 1000}, {256, 256}} {
		var c PhasorCache
		for _, bs := range sizes {
			check(t, fmt.Sprintf("past the cap, bs=%d after %v", bs, sizes), &c, long, w, bs)
		}
	}

	// First use raced from 8 goroutines on one cache: each builds or
	// reads the table while others store it, and every result must still
	// match. The starts are staggered so that later goroutines can find a
	// table an earlier one is still building.
	var c PhasorCache
	want := demodulateReference(served, w, 256, len(served)/256)
	results := make([][]complex128, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(g) * 100 * time.Microsecond)
			results[g] = c.demodulate(served, w, 256, len(served)/256)
		}()
	}
	close(start)
	wg.Wait()
	for g, got := range results {
		sameIQ(t, fmt.Sprintf("goroutine %d", g), got, want)
	}
}

// TestPhasorCacheBounded feeds one cache more distinct (pilot, rate)
// pairs than it holds, each with a capture past the table cap, as a
// hostile client may: it must never retain more than one table of
// maxTablePhasors entries (2 MiB). A pilot used again is served from its
// table, and a shorter table for the cached pilot never displaces it.
func TestPhasorCacheBounded(t *testing.T) {
	const bound = maxTablePhasors * 16
	if bound != 2<<20 {
		t.Fatalf("worst-case cache bytes = %d, documented as 2 MiB", bound)
	}
	var c PhasorCache
	long := maxTablePhasors + 5000
	for i, rate := range []float64{44100, 48000} {
		for j, f := range DefaultPilotCandidates()[:3] {
			if _, err := c.Recover(noiseCapture(f, rate, long, int64(10*i+j)), RecoverConfig{Freq: f}); err != nil {
				t.Fatalf("pilot %v Hz at %v Hz: %v", f, rate, err)
			}
			tab := cachedTable(&c)
			if tab == nil || tab.wBits != math.Float64bits(2*math.Pi*f/rate) {
				t.Fatalf("after pilot %v Hz at %v Hz the cache does not hold its table", f, rate)
			}
			if bytes := 16 * len(tab.phasors); bytes != bound {
				t.Fatalf("after pilot %v Hz at %v Hz the cache holds %d B; bound %d B", f, rate, bytes, bound)
			}
		}
	}

	// A longer capture outgrows a shorter table, and the pilot used
	// again is served from the table it built.
	served := noiseCapture(DefaultPilotHz, DefaultRate, 120000, 99).Samples
	w := 2 * math.Pi * DefaultPilotHz / DefaultRate
	n := len(served) / 256
	c.demodulate(served, w, 256, 3)
	c.demodulate(served, w, 256, n)
	first := cachedTable(&c)
	if len(first.phasors) != n*256 {
		t.Fatalf("cached table for the served capture has %d entries, want %d", len(first.phasors), n*256)
	}
	c.demodulate(served, w, 256, n)
	c.demodulate(served, w, 256, 3)
	if cachedTable(&c) != first {
		t.Error("the served pilot's table was rebuilt for a capture it covers")
	}

	// A short capture of the cached pilot whose build finishes after
	// the served table was stored keeps the longer table; a table for
	// another pilot takes the slot whatever its length.
	short := &phasorTable{wBits: math.Float64bits(w), phasors: make([]complex128, 3*256)}
	fillPhasors(short.phasors, w, 0)
	c.store(short)
	if cachedTable(&c) != first {
		t.Error("a shorter table for the cached pilot replaced the longer one")
	}
	wOther := 2 * math.Pi * 17000 / DefaultRate
	other := &phasorTable{wBits: math.Float64bits(wOther), phasors: make([]complex128, 256)}
	fillPhasors(other.phasors, wOther, 0)
	c.store(other)
	if cachedTable(&c) != other {
		t.Error("a table for another pilot did not take the slot")
	}
}

// FuzzRecoverMatchesReference holds Recover, and a PhasorCache's Recover
// that keeps its table across inputs, to Recover run over the reference
// demodulation, on random samples, pilots, rates and lengths: every
// Displacement bit, or the same error, must match. Rates and pilots
// include 0, NaN, ±Inf and out-of-band values; lengths reach past the
// phasor table cap.
func FuzzRecoverMatchesReference(f *testing.F) {
	var cache PhasorCache
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(int64(1), uint32(120000), DefaultPilotHz, DefaultRate)
	f.Add(int64(2), uint32(maxTablePhasors+300), 17250.0, 44100.0)
	f.Add(int64(3), uint32(700), 18321.7, DefaultRate)
	f.Add(int64(4), uint32(5000), 0.0, DefaultRate)
	f.Add(int64(5), uint32(5000), nan, DefaultRate)
	f.Add(int64(6), uint32(5000), inf, DefaultRate)
	f.Add(int64(7), uint32(5000), -inf, DefaultRate)
	f.Add(int64(8), uint32(5000), DefaultPilotHz, 0.0)
	f.Add(int64(9), uint32(5000), DefaultPilotHz, nan)
	f.Add(int64(10), uint32(5000), DefaultPilotHz, inf)
	f.Add(int64(11), uint32(5000), DefaultPilotHz, -DefaultRate)
	f.Add(int64(12), uint32(5000), 30000.0, DefaultRate)
	f.Add(int64(13), uint32(5000), DefaultRate/2, DefaultRate)
	f.Add(int64(14), uint32(0), DefaultPilotHz, DefaultRate)
	f.Fuzz(func(t *testing.T, seed int64, length uint32, pilot, rate float64) {
		n := int(length % (maxTablePhasors + 4096))
		capture := noiseCapture(DefaultPilotHz, DefaultRate, n, seed)
		capture.Rate = rate
		cfg := RecoverConfig{Freq: pilot}
		want, wantErr := recoverWith(capture, cfg, demodulateReference)
		for name, recover := range map[string]func(*audio.Signal, RecoverConfig) (*Displacement, error){
			"Recover": Recover, "PhasorCache.Recover": cache.Recover,
		} {
			got, gotErr := recover(capture, cfg)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s: err = %v, reference %v", name, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if len(got.T) != len(want.T) || len(got.Dr) != len(want.Dr) {
				t.Fatalf("%s: %d/%d blocks, reference %d/%d", name, len(got.T), len(got.Dr), len(want.T), len(want.Dr))
			}
			for b := range want.T {
				if math.Float64bits(got.T[b]) != math.Float64bits(want.T[b]) ||
					math.Float64bits(got.Dr[b]) != math.Float64bits(want.Dr[b]) {
					t.Fatalf("%s: block %d (T, Dr) = (%v, %v), reference (%v, %v)",
						name, b, got.T[b], got.Dr[b], want.T[b], want.Dr[b])
				}
			}
		}
	})
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

// benchCapture is the served gesture capture: 2.5 s at 48 kHz, 120 000
// samples.
func benchCapture(b *testing.B) *audio.Signal {
	capture, err := Simulate(DefaultChannel(), 2.5, func(tt float64) float64 { return 0.12 - 0.04*tt }, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return capture
}

// BenchmarkRecover times the served path: a PhasorCache whose table
// holds the pilot.
func BenchmarkRecover(b *testing.B) {
	capture := benchCapture(b)
	cfg := RecoverConfig{Freq: DefaultPilotHz}
	var c PhasorCache
	if _, err := c.Recover(capture, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Recover(capture, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverUncached times Recover, which keeps no table: the
// per-block phasors of a capture demodulated once.
func BenchmarkRecoverUncached(b *testing.B) {
	capture := benchCapture(b)
	cfg := RecoverConfig{Freq: DefaultPilotHz}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(capture, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverMiss alternates two pilots on one PhasorCache, so
// every call builds its table: the cost a client pays that defeats the
// cache, against BenchmarkRecover's cached table.
func BenchmarkRecoverMiss(b *testing.B) {
	capture := benchCapture(b)
	pilots := DefaultPilotCandidates()[:2]
	var c PhasorCache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Recover(capture, RecoverConfig{Freq: pilots[i%len(pilots)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// legacySimulate is Simulate's serial loop, kept as the oracle for its
// block-parallel form: every sample sums leak, echo, multipath and noise
// in this order, and the noise draws run in sample order.
func legacySimulate(cfg ChannelConfig, duration float64, dist func(t float64) float64, rng *rand.Rand) *audio.Signal {
	s := audio.NewSignal(duration, cfg.Rate)
	w := 2 * math.Pi * cfg.Freq
	const reflectorMeters = 0.5
	mpPhase := w * (2 * reflectorMeters / SpeedOfSound)
	for i := range s.Samples {
		t := float64(i) / cfg.Rate
		v := cfg.LeakGain * math.Sin(w*t)
		d := dist(t)
		v += cfg.EchoGain * math.Sin(w*(t-2*d/SpeedOfSound))
		if cfg.MultipathGain > 0 {
			v += cfg.MultipathGain * math.Sin(w*t-mpPhase)
		}
		if cfg.NoiseRMS > 0 && rng != nil {
			v += rng.NormFloat64() * cfg.NoiseRMS
		}
		s.Samples[i] = v
	}
	return s
}

// TestSimulateMatchesSerialLoop holds Simulate to legacySimulate's bits
// on every sample, with noise on and off, without an RNG and without
// multipath, and checks that both leave the RNG at the same point.
func TestSimulateMatchesSerialLoop(t *testing.T) {
	dist := func(t float64) float64 { return 0.06 + 0.03*math.Sin(2*math.Pi*1.3*t) }
	noiseless := DefaultChannel()
	noiseless.NoiseRMS = 0
	direct := DefaultChannel()
	direct.MultipathGain = 0
	cases := []struct {
		name  string
		cfg   ChannelConfig
		noRNG bool
	}{
		{name: "noise", cfg: DefaultChannel()},
		{name: "no-noise", cfg: noiseless},
		{name: "nil-rng", cfg: DefaultChannel(), noRNG: true},
		{name: "no-multipath", cfg: direct},
	}
	for _, c := range cases {
		for _, duration := range []float64{1e-4, 0.0137, 1.5} {
			var got, gotRNG, wantRNG *rand.Rand
			if !c.noRNG {
				gotRNG, wantRNG = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
				got = gotRNG
			}
			s, err := Simulate(c.cfg, duration, dist, got)
			if err != nil {
				t.Fatal(err)
			}
			want := legacySimulate(c.cfg, duration, dist, wantRNG)
			if len(s.Samples) != len(want.Samples) {
				t.Fatalf("%s/%v: %d samples, want %d", c.name, duration, len(s.Samples), len(want.Samples))
			}
			for i, v := range s.Samples {
				if math.Float64bits(v) != math.Float64bits(want.Samples[i]) {
					t.Fatalf("%s/%v: sample %d = %v, serial loop %v", c.name, duration, i, v, want.Samples[i])
				}
			}
			if !c.noRNG && gotRNG.Int63() != wantRNG.Int63() {
				t.Errorf("%s/%v: Simulate left the RNG at a different point", c.name, duration)
			}
		}
	}
}
