package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// TestPlanMatchesNaiveDFT uses naiveDFT from fft_test.go as the O(n²)
// reference.
//
// TestPlanMatchesNaiveDFT covers power-of-two and Bluestein (odd,
// composite, prime) sizes against the direct transform, and the
// power-of-two inverse (Bluestein's convolution) by a round trip.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64, 100, 127, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := make([]complex128, n)
		copy(got, x)
		p := PlanFFT(n)
		if p.Size() != n {
			t.Fatalf("PlanFFT(%d).Size() = %d", n, p.Size())
		}
		p.transform(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
		if p.perm == nil {
			continue
		}
		p.pow2Transform(got, true)
		for i := range x {
			if cmplx.Abs(got[i]/complex(float64(n), 0)-x[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d: round trip sample %d: got %v want %v", n, i, got[i], x[i])
			}
		}
	}
}

// TestPlanSizeMismatch pins the exported error paths.
func TestPlanSizeMismatch(t *testing.T) {
	p := PlanFFT(8)
	if err := p.RealPower(make([]float64, 5), make([]float64, 4)); err == nil {
		t.Error("RealPower accepted a mismatched signal")
	}
	if err := p.RealPower(make([]float64, 3), make([]float64, 8)); err == nil {
		t.Error("RealPower accepted a mismatched spectrum")
	}
	if PlanFFT(0) != nil || PlanFFT(-3) != nil {
		t.Error("PlanFFT should reject non-positive sizes")
	}
}

// TestPlanCacheReturnsSameInstance checks the sync.Map cache: one plan
// per size, shared across goroutines.
func TestPlanCacheReturnsSameInstance(t *testing.T) {
	const n = 256
	first := PlanFFT(n)
	var wg sync.WaitGroup
	plans := make([]*FFTPlan, 16)
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[g] = PlanFFT(n)
		}()
	}
	wg.Wait()
	for g, p := range plans {
		if p != first {
			t.Fatalf("goroutine %d got a distinct plan for size %d", g, n)
		}
	}
}

// TestRealPowerMatchesComplex checks the half-size packing trick
// against the full complex transform, including the Nyquist bin and an
// odd (fallback) length.
func TestRealPowerMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 4, 16, 64, 512, 9} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		want := PowerSpectrum(naiveDFT(c))
		pow := make([]float64, n/2+1)
		if err := PlanFFT(n).RealPower(pow, x); err != nil {
			t.Fatalf("n=%d: RealPower: %v", n, err)
		}
		for k := range pow {
			if math.Abs(pow[k]-want[k]) > 1e-8*float64(n)*(1+want[k]) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, pow[k], want[k])
			}
		}
	}
}

// TestFFTRealMirrorsSpectrum checks the public FFTReal keeps returning
// the full-length conjugate-symmetric spectrum on the fast path.
func TestFFTRealMirrorsSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := FFTReal(x)
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	want := naiveDFT(c)
	for k := range want {
		if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(len(x)) {
			t.Fatalf("bin %d: got %v want %v", k, got[k], want[k])
		}
	}
}

// TestWindowCacheConcurrent hammers the (window, size) coefficient cache
// from many goroutines; under -race this is the regression test for the
// per-call recomputation fix.
func TestWindowCacheConcurrent(t *testing.T) {
	windows := []Window{WindowRect, WindowHann, WindowHamming, WindowBlackman}
	sizes := []int{63, 64, 400, 512}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				w := windows[iter%len(windows)]
				n := sizes[iter%len(sizes)]
				got, err := w.cachedCoefficients(n)
				if err != nil {
					t.Errorf("cachedCoefficients(%v, %d): %v", w, n, err)
					return
				}
				for i := range got {
					if want := w.at(i, n); got[i] != want { //lint:allow floatcmp cache must be bit-identical to the generator
						t.Errorf("%v/%d coefficient %d: %v != %v", w, n, i, got[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSTFTParallelEquivalence runs the same signal through STFT at
// several sizes (packed and Bluestein paths) and checks frames are
// bit-identical across repeat runs — the fan-out must not perturb
// results. (GOMAXPROCS variation is exercised by -cpu=1,4 in CI.)
func TestSTFTParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := make([]float64, 8000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, cfg := range []STFTConfig{
		{FrameSize: 256, HopSize: 64, SampleRate: 8000},
		{FrameSize: 100, HopSize: 37, FFTSize: 100, SampleRate: 8000}, // Bluestein
		{FrameSize: 129, HopSize: 64, FFTSize: 129, SampleRate: 8000}, // odd Bluestein
	} {
		a, err := STFT(x, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		b, err := STFT(x, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if len(a.Frames) != len(b.Frames) {
			t.Fatalf("cfg %+v: frame count %d vs %d", cfg, len(a.Frames), len(b.Frames))
		}
		for f := range a.Frames {
			for k := range a.Frames[f] {
				if a.Frames[f][k] != b.Frames[f][k] { //lint:allow floatcmp determinism contract: repeat runs must be bit-identical
					t.Fatalf("cfg %+v frame %d bin %d: %v != %v",
						cfg, f, k, a.Frames[f][k], b.Frames[f][k])
				}
			}
		}
	}
}
