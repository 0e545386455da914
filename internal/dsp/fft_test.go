package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is all ones.
	got := FFT([]complex128{1, 0, 0, 0})
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of constant signal concentrates in bin 0.
	got = FFT([]complex128{2, 2, 2, 2})
	if cmplx.Abs(got[0]-8) > 1e-12 {
		t.Errorf("bin 0 = %v, want 8", got[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(got[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Errorf("FFT(nil) = %v, want nil", got)
	}
	got := FFT([]complex128{3 + 4i})
	if len(got) != 1 || cmplx.Abs(got[0]-(3+4i)) > 1e-12 {
		t.Errorf("FFT single = %v", got)
	}
}

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			out[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 64, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := FFT(x)
		want := naiveDFT(x)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: Σ|x|² == (1/N) Σ|X|².
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{16, 27, 64, 100} {
		x := make([]complex128, n)
		var tx float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tx += real(x[i]) * real(x[i])
		}
		spec := FFT(x)
		var tf float64
		for _, c := range spec {
			tf += real(c)*real(c) + imag(c)*imag(c)
		}
		tf /= float64(n)
		if math.Abs(tx-tf) > 1e-8*tx {
			t.Errorf("n=%d: time energy %v != freq energy %v", n, tx, tf)
		}
	}
}

func TestFFTRealSinusoid(t *testing.T) {
	const (
		n    = 256
		rate = 8000.0
		freq = 1000.0 // exactly bin 32
	)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / rate)
	}
	spec := FFTReal(x)
	mags := Magnitudes(spec)
	bin := FrequencyBin(freq, n, rate)
	// Peak at the expected bin with magnitude n/2.
	if math.Abs(mags[bin]-n/2) > 1e-6 {
		t.Errorf("peak magnitude = %v, want %v", mags[bin], n/2.0)
	}
	for k := 0; k <= n/2; k++ {
		if k == bin {
			continue
		}
		if mags[k] > 1e-6 {
			t.Errorf("leakage at bin %d: %v", k, mags[k])
		}
	}
}

func TestBinFrequencyRoundTrip(t *testing.T) {
	const n, rate = 1024, 48000.0
	for _, f := range []float64{0, 100, 440, 19000, 23900} {
		bin := FrequencyBin(f, n, rate)
		back := BinFrequency(bin, n, rate)
		if math.Abs(back-f) > rate/float64(n) {
			t.Errorf("freq %v -> bin %d -> %v", f, bin, back)
		}
	}
	if FrequencyBin(-10, n, rate) != 0 {
		t.Error("negative frequency should clamp to bin 0")
	}
	if FrequencyBin(1e9, n, rate) != n-1 {
		t.Error("huge frequency should clamp to last bin")
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestPowerSpectrum(t *testing.T) {
	spec := []complex128{3 + 4i, 1, 0}
	p := PowerSpectrum(spec)
	want := []float64{25, 1, 0}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Errorf("power[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := make([]complex128, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
