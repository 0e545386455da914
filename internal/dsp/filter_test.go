package dsp

import (
	"math"
	"testing"
)

// sineResponse measures the steady-state output amplitude of a filter for a
// unit-amplitude sine at freq.
func sineResponse(process func(float64) float64, freq, rate float64, n int) float64 {
	var peak float64
	for i := 0; i < n; i++ {
		y := process(math.Sin(2 * math.Pi * freq * float64(i) / rate))
		if i > n/2 && math.Abs(y) > peak { // skip transient
			peak = math.Abs(y)
		}
	}
	return peak
}

func TestResonatorGainAtCenter(t *testing.T) {
	const rate = 16000.0
	for _, tc := range []struct{ f, bw float64 }{
		{500, 60}, {1500, 90}, {2500, 120}, {3500, 150},
	} {
		r := NewResonator(tc.f, tc.bw, rate)
		got := sineResponse(r.Process, tc.f, rate, 16000)
		if math.Abs(got-1) > 0.05 {
			t.Errorf("resonator %v Hz: center gain %v, want ~1", tc.f, got)
		}
	}
}

func TestResonatorSelectivity(t *testing.T) {
	const rate = 16000.0
	r := NewResonator(1000, 80, rate)
	center := sineResponse(r.Process, 1000, rate, 16000)
	off := sineResponse(NewResonator(1000, 80, rate).Process, 3000, rate, 16000)
	if off >= center/4 {
		t.Errorf("off-center gain %v not well below center %v", off, center)
	}
}

func TestLowPassBiquad(t *testing.T) {
	const rate = 48000.0
	lp := NewLowPassBiquad(1000, rate)
	pass := sineResponse(lp.Process, 100, rate, 48000)
	stop := sineResponse(NewLowPassBiquad(1000, rate).Process, 10000, rate, 48000)
	if pass < 0.95 {
		t.Errorf("passband gain %v, want ~1", pass)
	}
	if stop > 0.05 {
		t.Errorf("stopband gain %v, want <0.05", stop)
	}
}

func TestHighPassBiquad(t *testing.T) {
	const rate = 48000.0
	hp := NewHighPassBiquad(5000, rate)
	stop := sineResponse(hp.Process, 200, rate, 48000)
	pass := sineResponse(NewHighPassBiquad(5000, rate).Process, 20000, rate, 48000)
	if pass < 0.9 {
		t.Errorf("passband gain %v, want ~1", pass)
	}
	if stop > 0.05 {
		t.Errorf("stopband gain %v, want <0.05", stop)
	}
}

func TestBiquadProcessBlock(t *testing.T) {
	lp1 := NewLowPassBiquad(2000, 48000)
	lp2 := NewLowPassBiquad(2000, 48000)
	x := make([]float64, 100)
	for i := range x {
		x[i] = math.Sin(0.1 * float64(i))
	}
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = lp1.Process(v)
	}
	lp2.ProcessBlock(x)
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("block[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestUnwrap(t *testing.T) {
	// A linearly increasing phase wrapped into (-π, π] should unwrap to a
	// straight line.
	n := 200
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 0.2 * float64(i)
		w := math.Mod(truth[i]+math.Pi, 2*math.Pi) - math.Pi
		wrapped[i] = w
	}
	un := Unwrap(wrapped)
	for i := range un {
		if math.Abs(un[i]-truth[i]) > 1e-9 {
			t.Fatalf("unwrap[%d] = %v, want %v", i, un[i], truth[i])
		}
	}
}

func TestUnwrapDescending(t *testing.T) {
	n := 100
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = -0.3 * float64(i)
		wrapped[i] = math.Mod(truth[i]-math.Pi, 2*math.Pi) + math.Pi
		if wrapped[i] > math.Pi {
			wrapped[i] -= 2 * math.Pi
		}
	}
	un := Unwrap(wrapped)
	for i := 1; i < n; i++ {
		if un[i] >= un[i-1] {
			t.Fatalf("unwrap not monotone at %d: %v >= %v", i, un[i], un[i-1])
		}
	}
}

func BenchmarkSTFT(b *testing.B) {
	x := chirpSignal(48000, 48000, 17000, 21000)
	cfg := STFTConfig{FrameSize: 1024, HopSize: 512, SampleRate: 48000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := STFT(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
