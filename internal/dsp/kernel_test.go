package dsp

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The ref* helpers are the portable transform as it ran before the
// butterfly kernel: the swap pass, radix2StagesGeneric, Bluestein over
// that, and sequential real-input packing with the (m−k) mod m unpack.
// They are the oracle every dispatched path must match bit for bit.

func refTransform(p *FFTPlan, x []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	if p.perm == nil {
		refBluestein(p, x, inverse)
		return
	}
	for i := 1; i < n; i++ {
		if j := int(p.perm[i]); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.twFwd
	if inverse {
		tw = p.twInv
	}
	radix2StagesGeneric(x, tw)
}

func refBluestein(p *FFTPlan, x []complex128, inverse bool) {
	chirp, bfft := p.chirpF, p.bF
	if inverse {
		chirp, bfft = p.chirpI, p.bI
	}
	a := make([]complex128, p.conv.n)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * chirp[k]
	}
	refTransform(p.conv, a, false)
	for i := range a {
		a[i] *= bfft[i]
	}
	refTransform(p.conv, a, true)
	scale := complex(1/float64(p.conv.n), 0)
	for k := 0; k < p.n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// refPacked returns the transformed packed buffer of a real even
// power-of-two signal.
func refPacked(p *FFTPlan, x []float64) []complex128 {
	z := make([]complex128, p.n/2)
	for i := range z {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	refTransform(p.half, z, false)
	return z
}

// refSpectrum is the reference real-input spectrum: bins 0..n/2.
func refSpectrum(p *FFTPlan, x []float64) []complex128 {
	spec := make([]complex128, p.n/2+1)
	if !p.canPackReal() {
		full := make([]complex128, p.n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		refTransform(p, full, false)
		copy(spec, full)
		return spec
	}
	z := refPacked(p, x)
	m := p.n / 2
	for k := 0; k < m; k++ {
		zr := cmplx.Conj(z[(m-k)%m])
		e := (z[k] + zr) * 0.5
		o := (z[k] - zr) * complex(0, -0.5)
		spec[k] = e + p.realTw[k]*o
	}
	spec[m] = complex(real(z[0])-imag(z[0]), 0)
	return spec
}

// refPower is RealPower's reference.
func refPower(p *FFTPlan, x []float64) []float64 {
	out := make([]float64, p.n/2+1)
	if !p.canPackReal() {
		for k, c := range refSpectrum(p, x) {
			re, im := real(c), imag(c)
			out[k] = re*re + im*im
		}
		return out
	}
	z := refPacked(p, x)
	m := p.n / 2
	for k := 0; k < m; k++ {
		zr := cmplx.Conj(z[(m-k)%m])
		e := (z[k] + zr) * 0.5
		o := (z[k] - zr) * complex(0, -0.5)
		xk := e + p.realTw[k]*o
		re, im := real(xk), imag(xk)
		out[k] = re*re + im*im
	}
	nyq := real(z[0]) - imag(z[0])
	out[m] = nyq * nyq
	return out
}

// refMagnitudes is realMagnitudes' reference (STFT's packed path).
func refMagnitudes(p *FFTPlan, x []float64) []float64 {
	z := refPacked(p, x)
	m := p.n / 2
	out := make([]float64, m+1)
	for k := 0; k < m; k++ {
		zr := cmplx.Conj(z[(m-k)%m])
		e := (z[k] + zr) * 0.5
		o := (z[k] - zr) * complex(0, -0.5)
		xk := e + p.realTw[k]*o
		re, im := real(xk), imag(xk)
		out[k] = math.Sqrt(re*re + im*im)
	}
	out[m] = math.Abs(real(z[0]) - imag(z[0]))
	return out
}

// sameBits reports whether got reproduces want: identical bits, or both
// NaN (a NaN's payload is not pinned).
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkFFTBits runs every transform entry point over one input and
// fails on the first bin whose bits differ from the reference.
func checkFFTBits(t *testing.T, x []float64, inverse bool) {
	t.Helper()
	n := len(x)
	p := PlanFFT(n)
	c := make([]complex128, n)
	for i := range c {
		c[i] = complex(x[i], x[n-1-i])
	}
	want := append([]complex128(nil), c...)
	refTransform(p, want, inverse)
	got := append([]complex128(nil), c...)
	p.transform(got, inverse)
	for k := range want {
		if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
			t.Fatalf("n=%d inverse=%v: bin %d = %v, want %v", n, inverse, k, got[k], want[k])
		}
	}
	pow := make([]float64, n/2+1)
	if err := p.RealPower(pow, x); err != nil {
		t.Fatal(err)
	}
	for k, w := range refPower(p, x) {
		if !sameBits(pow[k], w) {
			t.Fatalf("n=%d RealPower: bin %d = %v, want %v", n, k, pow[k], w)
		}
	}
	if !p.canPackReal() {
		return
	}
	zptr := p.half.acquire()
	z := *zptr
	p.packReal(z, x)
	p.half.butterflies(z, false)
	mag := make([]float64, n/2+1)
	p.realMagnitudes(z, mag)
	p.half.release(zptr)
	for k, w := range refMagnitudes(p, x) {
		if !sameBits(mag[k], w) {
			t.Fatalf("n=%d magnitudes: bin %d = %v, want %v", n, k, mag[k], w)
		}
	}
}

// checkUnpackBits holds the dispatched real-input unpack (the AVX2
// kernel where the CPU has it) to realPowerGeneric on the packed
// spectrum z, whose length must be a power of two, and checks that it
// writes nothing past bin len(z)−1.
func checkUnpackBits(t *testing.T, z []complex128) {
	t.Helper()
	m := len(z)
	tw := PlanFFT(2 * m).realTw
	want := make([]float64, m)
	realPowerGeneric(want, z, tw)
	const guard = 12345.678
	got := make([]float64, m+1)
	got[m] = guard
	realPowerBins(got[:m], z, tw)
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("n=%d unpack: bin %d = %v, want %v (z[k] = %v, z[m−k] = %v)",
				2*m, k, got[k], want[k], z[k], z[mirror(k, m)])
		}
	}
	if got[m] != guard { //lint:allow floatcmp sentinel must keep its exact bits
		t.Fatalf("n=%d unpack wrote past its last bin", 2*m)
	}
}

// specialValues are the IEEE edge cases the fuzz seeds and the table
// test mix into random signals.
var specialValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestFFTKernelMatchesGeneric holds every transform entry point to the
// portable loops on 1,200 random signals, n = 2…1024 plus Bluestein
// sizes, some sprinkled with signed zeros, subnormals and infinities.
// It then holds the real-input unpack to its portable loop directly, on
// packed spectra for every power-of-two n = 2…4096: finite values over
// the whole exponent range (so squares underflow and overflow), a few
// IEEE edge cases among them, and spectra made mostly of edge cases.
func TestFFTKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 3, 6, 10, 400, 443, 1000}
	for i := 0; i < 1200; i++ {
		n := sizes[i%len(sizes)]
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		if i%5 == 0 {
			for s := 0; s < 1+rng.Intn(3); s++ {
				x[rng.Intn(n)] = specialValues[rng.Intn(len(specialValues))]
			}
		}
		checkFFTBits(t, x, i%2 == 1)
	}
	value := func(special int) float64 {
		if rng.Intn(special) == 0 {
			return specialValues[rng.Intn(len(specialValues))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(620)-310))
	}
	for n := 2; n <= 4096; n <<= 1 {
		for trial := 0; trial < 12; trial++ {
			special := []int{1 << 30, 16, 2}[trial%3]
			z := make([]complex128, n/2)
			for j := range z {
				z[j] = complex(value(special), value(special))
			}
			checkUnpackBits(t, z)
		}
	}
}

// FuzzFFTMatchesGeneric holds the dispatched transforms (forward,
// inverse, RealPower and the STFT magnitudes) to the
// portable loops, bit for bit, on fuzzer-chosen sizes n = 2…4096 and
// raw float64 bit patterns. The same bits, read as a packed spectrum of
// the largest power-of-two size n' ≤ n, hold the real-input unpack to
// its portable loop with no transform between.
func FuzzFFTMatchesGeneric(f *testing.F) {
	seed := func(n uint16, inverse bool, vals ...float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, n)
		if inverse {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(8, false, 1, -2, 3, -4, 5, -6, 7, -8))
	f.Add(seed(256, true, specialValues...))
	f.Add(seed(512, false, 0, math.Copysign(0, -1), 5e-324, -5e-324))
	f.Add(seed(443, false, math.Inf(1), 1, 2))
	f.Add(seed(1000, true, math.NaN(), math.Inf(-1)))
	f.Add(seed(4096, false, 1e300, -1e300, 1e-300))
	f.Add(seed(4, false, math.Inf(1), math.NaN(), math.Copysign(0, -1), 5e-324))
	f.Add(seed(16, false, math.Inf(-1), 0, 0, math.Inf(1), 1e-200, -1e-170, 1e160, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(binary.LittleEndian.Uint16(data))%4095
		inverse := data[2]&1 == 1
		raw := data[3:]
		x := make([]float64, n)
		for i := range x {
			if 8*i+8 <= len(raw) {
				x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			} else {
				x[i] = float64((i*7919)%23) - 11
			}
		}
		checkFFTBits(t, x, inverse)
		z := make([]complex128, 1<<(bits.Len(uint(n/2))-1))
		for i := range z {
			z[i] = complex(x[2*i], x[2*i+1])
		}
		checkUnpackBits(t, z)
	})
}

var sinkPower []float64

// BenchmarkRealPower512 times the MFCC front-end's per-frame spectrum: a
// 512-point real power spectrum through the cached plan.
func BenchmarkRealPower512(b *testing.B) {
	p := PlanFFT(512)
	x := benchSignal(512)
	dst := make([]float64, 257)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RealPower(dst, x); err != nil {
			b.Fatal(err)
		}
	}
	sinkPower = dst
}

// BenchmarkRadix2Stages256 times the butterfly stages of one 256-point
// complex transform, dispatched and portable.
func BenchmarkRadix2Stages256(b *testing.B) {
	p := PlanFFT(256)
	src := benchComplex(256)
	x := make([]complex128, 256)
	for _, bc := range []struct {
		name string
		fn   func(x, tw []complex128)
	}{{"dispatch", radix2Stages}, {"generic", radix2StagesGeneric}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				bc.fn(x, p.twFwd)
			}
		})
	}
}
