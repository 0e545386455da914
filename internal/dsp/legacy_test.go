package dsp

// The legacy* helpers are the seed (pre-plan) implementations, kept
// verbatim in test code as the reference the planned hot path is checked
// and benchmarked against: per-call twiddle recurrences, per-frame
// allocations, serial frame loop.

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

func legacyFFTInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		legacyRadix2(x, inverse)
		return
	}
	legacyBluestein(x, inverse)
}

func legacyRadix2(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		ws, wc := math.Sincos(step)
		w := complex(wc, ws)
		for start := 0; start < n; start += size {
			tw := complex(1, 0)
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * tw
				x[k] = a + b
				x[k+half] = a - b
				tw *= w
			}
		}
	}
}

func legacyBluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		s, c := math.Sincos(ang)
		chirp[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	legacyRadix2(a, false)
	legacyRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	legacyRadix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// legacySTFT is the seed STFT: per-call window build, one shared complex
// buffer, a fresh row allocation per frame, serial loop.
func legacySTFT(x []float64, cfg STFTConfig) (*Spectrogram, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if len(x) < cfg.FrameSize {
		return nil, ErrShortSignal
	}
	nFrames := 1 + (len(x)-cfg.FrameSize)/cfg.HopSize
	win, err := cfg.Window.SharedCoefficients(cfg.FrameSize)
	if err != nil {
		return nil, err
	}
	nBins := cfg.FFTSize/2 + 1
	sp := &Spectrogram{
		Frames:     make([][]float64, nFrames),
		SampleRate: cfg.SampleRate,
		FFTSize:    cfg.FFTSize,
		HopSize:    cfg.HopSize,
	}
	buf := make([]complex128, cfg.FFTSize)
	for f := 0; f < nFrames; f++ {
		off := f * cfg.HopSize
		for i := 0; i < cfg.FrameSize; i++ {
			buf[i] = complex(x[off+i]*win[i], 0)
		}
		for i := cfg.FrameSize; i < cfg.FFTSize; i++ {
			buf[i] = 0
		}
		legacyFFTInPlace(buf, false)
		row := make([]float64, nBins)
		for k := 0; k < nBins; k++ {
			re, im := real(buf[k]), imag(buf[k])
			row[k] = math.Sqrt(re*re + im*im)
		}
		sp.Frames[f] = row
	}
	return sp, nil
}

// TestSTFTMatchesLegacy compares the planned STFT against the seed
// implementation within float tolerance on packed and Bluestein paths.
func TestSTFTMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := make([]float64, 6400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, cfg := range []STFTConfig{
		{FrameSize: 400, HopSize: 160, SampleRate: 16000},
		{FrameSize: 256, HopSize: 64, FFTSize: 512, SampleRate: 16000},
		{FrameSize: 60, HopSize: 25, FFTSize: 100, SampleRate: 16000},
	} {
		want, err := legacySTFT(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := STFT(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Frames) != len(want.Frames) {
			t.Fatalf("cfg %+v: %d frames, want %d", cfg, len(got.Frames), len(want.Frames))
		}
		for f := range want.Frames {
			for k := range want.Frames[f] {
				w, g := want.Frames[f][k], got.Frames[f][k]
				if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
					t.Fatalf("cfg %+v frame %d bin %d: planned %v vs legacy %v", cfg, f, k, g, w)
				}
			}
		}
	}
}

// TestFFTMatchesLegacy compares the planned complex transforms against
// the seed per-call implementation.
func TestFFTMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{8, 64, 100, 129, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := make([]complex128, n)
		copy(want, x)
		legacyFFTInPlace(want, false)
		got := FFT(x)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: planned %v vs legacy %v", n, k, got[k], want[k])
			}
		}
	}
}

// --- -benchmem micro-benchmarks: seed vs planned paths ---

func benchSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func benchComplex(n int) []complex128 {
	rng := rand.New(rand.NewSource(6))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func BenchmarkFFTLegacy1024(b *testing.B) {
	x := benchComplex(1024)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		legacyFFTInPlace(buf, false)
	}
}

func BenchmarkFFTPlanned1024(b *testing.B) {
	x := benchComplex(1024)
	buf := make([]complex128, len(x))
	p := PlanFFT(len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.transform(buf, false)
	}
}

// Odd length: the Bluestein path, where the planned chirp/filter tables
// save three full transforms per call.
func BenchmarkFFTLegacyBluestein443(b *testing.B) {
	x := benchComplex(443)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		legacyFFTInPlace(buf, false)
	}
}

func BenchmarkFFTPlannedBluestein443(b *testing.B) {
	x := benchComplex(443)
	buf := make([]complex128, len(x))
	p := PlanFFT(len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.transform(buf, false)
	}
}

// stftBenchConfig mirrors the ranging pilot analysis (16 kHz capture,
// 25 ms frames, 512-point transforms).
var stftBenchConfig = STFTConfig{FrameSize: 400, HopSize: 160, FFTSize: 512, SampleRate: 16000}

func BenchmarkSTFTLegacy(b *testing.B) {
	x := benchSignal(16000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacySTFT(x, stftBenchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTFTPlanned(b *testing.B) {
	x := benchSignal(16000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := STFT(x, stftBenchConfig); err != nil {
			b.Fatal(err)
		}
	}
}
