package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// FFTPlan holds everything size-dependent about a transform so the hot
// path does no trigonometry and no allocation: the bit-reversal
// permutation, per-stage twiddle-factor tables (forward and inverse), the
// half-size sub-plan plus unpack twiddles for real-input transforms, the
// precomputed chirp and chirp-filter spectra for Bluestein (non-power-of-
// two) sizes, and a sync.Pool of scratch buffers. Plans are immutable
// after construction and safe for concurrent use; obtain them from
// PlanFFT, which caches one plan per size for the life of the process.
type FFTPlan struct {
	n int

	// Power-of-two (Cooley–Tukey) tables.
	perm  []int32      // bit-reversal permutation: perm[i] is i's partner
	twFwd []complex128 // flattened forward twiddles; stage with half-size h occupies [h-1, 2h-1)
	twInv []complex128 // conjugate table for the inverse transform

	// Real-input support (even power-of-two sizes): a real n-point
	// transform runs as one complex n/2-point transform plus an unpack
	// pass using realTw[k] = exp(-2πik/n).
	half   *FFTPlan
	realTw []complex128

	// Bluestein (chirp-z) tables for non-power-of-two sizes.
	chirpF, chirpI []complex128 // exp(∓iπk²/n)
	bF, bI         []complex128 // forward FFT of the chirp filter, length conv.n
	conv           *FFTPlan     // power-of-two convolution plan

	scratch sync.Pool // *[]complex128 of length n
}

// planCache maps transform size → *FFTPlan. Plans are tiny relative to
// the signals they transform (a few tables of length ≤ 2n) and the
// process works with a handful of distinct sizes, so the cache is never
// evicted.
var planCache sync.Map // int → *FFTPlan

// PlanFFT returns the cached plan for n-point transforms, building and
// caching it on first use. It returns nil for n < 1.
func PlanFFT(n int) *FFTPlan {
	if n < 1 {
		return nil
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan)
	}
	p, _ := planCache.LoadOrStore(n, newPlan(n))
	return p.(*FFTPlan)
}

// Size returns the transform length the plan was built for.
func (p *FFTPlan) Size() int { return p.n }

// newPlan precomputes every table for an n-point transform.
func newPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	p.scratch.New = func() any {
		s := make([]complex128, n)
		return &s
	}
	if n&(n-1) == 0 {
		p.initPow2()
	} else {
		p.initBluestein()
	}
	return p
}

// initPow2 builds the Cooley–Tukey tables and the real-input sub-plan.
func (p *FFTPlan) initPow2() {
	n := p.n
	p.perm = make([]int32, n)
	for i, j := 0, 0; i < n; i++ {
		p.perm[i] = int32(j)
		// Classic bit-reversal increment: add one at the reversed MSB.
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j &^= bit
		}
		j |= bit
	}
	if n > 1 {
		p.twFwd = make([]complex128, n-1)
		p.twInv = make([]complex128, n-1)
		for half := 1; half < n; half <<= 1 {
			for k := 0; k < half; k++ {
				s, c := math.Sincos(-math.Pi * float64(k) / float64(half))
				p.twFwd[half-1+k] = complex(c, s)
				p.twInv[half-1+k] = complex(c, -s)
			}
		}
		p.half = PlanFFT(n / 2)
		p.realTw = make([]complex128, n/2)
		for k := range p.realTw {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			p.realTw[k] = complex(c, s)
		}
	}
}

// initBluestein builds the chirp tables and the spectrum of the chirp
// filter for both transform directions.
func (p *FFTPlan) initBluestein() {
	n := p.n
	p.chirpF = make([]complex128, n)
	p.chirpI = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the chirp angle accurate for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := math.Pi * float64(kk) / float64(n)
		s, c := math.Sincos(ang)
		p.chirpF[k] = complex(c, -s)
		p.chirpI[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.conv = PlanFFT(m)
	p.bF = chirpFilterSpectrum(p.chirpF, p.conv)
	p.bI = chirpFilterSpectrum(p.chirpI, p.conv)
}

// chirpFilterSpectrum returns the forward FFT of the Bluestein chirp
// filter b (the conjugated chirp, wrapped symmetrically).
func chirpFilterSpectrum(chirp []complex128, conv *FFTPlan) []complex128 {
	n := len(chirp)
	b := make([]complex128, conv.n)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[conv.n-k] = cmplx.Conj(chirp[k])
	}
	conv.transform(b, false)
	return b
}

// ErrPlanSize is wrapped by the exported plan methods when the buffer
// length does not match the plan size.
const errPlanSize = "dsp: buffer length %d does not match plan size %d"

// transform runs the in-place transform; inverse selects the conjugate
// direction without normalization. len(x) must equal p.n.
func (p *FFTPlan) transform(x []complex128, inverse bool) {
	if p.n <= 1 {
		return
	}
	if p.perm != nil {
		p.pow2Transform(x, inverse)
		return
	}
	p.bluesteinTransform(x, inverse)
}

// pow2Transform is the table-driven iterative radix-2 transform: the
// bit-reversal permutation, then the butterfly stages.
func (p *FFTPlan) pow2Transform(x []complex128, inverse bool) {
	n := p.n
	for i := 1; i < n; i++ {
		if j := int(p.perm[i]); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x, inverse)
}

// butterflies runs the radix-2 stages of a power-of-two plan over x,
// which must already be in bit-reversed order. Real-input callers write
// their packed samples straight to the permuted slots, so the transform
// needs no swap pass.
func (p *FFTPlan) butterflies(x []complex128, inverse bool) {
	if p.n <= 1 {
		return
	}
	tw := p.twFwd
	if inverse {
		tw = p.twInv
	}
	radix2Stages(x, tw)
}

// radix2StagesGeneric is the portable butterfly loop, the oracle of the
// amd64 kernel: stage after stage, x[lo] and x[hi] become a+b and a−b
// with b = x[hi]·w, w the stage's twiddle from tw (laid out as in
// FFTPlan.twFwd). len(x) must be a power of two ≥ 2 and len(tw) ≥
// len(x)−1.
func radix2StagesGeneric(x, tw []complex128) {
	n := len(x)
	for half := 1; half < n; half <<= 1 {
		t := tw[half-1 : 2*half-1]
		size := half << 1
		for start := 0; start < n; start += size {
			hi := x[start+half : start+size : start+size]
			lo := x[start : start+half : start+half]
			for k := range lo {
				a := lo[k]
				b := hi[k] * t[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// bluesteinTransform evaluates the arbitrary-length DFT as a power-of-two
// convolution against the precomputed chirp-filter spectrum.
func (p *FFTPlan) bluesteinTransform(x []complex128, inverse bool) {
	chirp, bfft := p.chirpF, p.bF
	if inverse {
		chirp, bfft = p.chirpI, p.bI
	}
	aptr := p.conv.acquire()
	a := *aptr
	n := p.n
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	for k := n; k < len(a); k++ {
		a[k] = 0
	}
	p.conv.transform(a, false)
	for i := range a {
		a[i] *= bfft[i]
	}
	p.conv.transform(a, true)
	scale := complex(1/float64(p.conv.n), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
	p.conv.release(aptr)
}

// acquire hands out a pooled scratch buffer of length p.n. The pooling
// contract: every acquire is paired with a release on the same
// goroutine-visible path, and pooled buffers never escape the function
// that acquired them (enforced by the poolescape analyzer).
func (p *FFTPlan) acquire() *[]complex128 {
	return p.scratch.Get().(*[]complex128) //lint:allow poolescape acquire/release is the managed accessor pair
}

// release returns a scratch buffer to the pool. Contents are not zeroed;
// acquirers must overwrite every element they read.
func (p *FFTPlan) release(b *[]complex128) { p.scratch.Put(b) }

// packReal writes the real signal x into the half-size buffer z as the
// complex samples x[2i] + i·x[2i+1], each stored at its bit-reversed
// slot, so z is ready for p.half.butterflies without a swap pass. The
// permutation is an involution, so this is the packed buffer after
// pow2Transform's swaps.
func (p *FFTPlan) packReal(z []complex128, x []float64) {
	for i, j := range p.half.perm {
		z[j] = complex(x[2*i], x[2*i+1])
	}
}

// canPackReal reports whether the even/odd packing path applies.
func (p *FFTPlan) canPackReal() bool { return p.n >= 2 && p.n&(p.n-1) == 0 }

// mirror returns (m−k) mod m for 0 ≤ k < m, the conjugate partner of
// packed bin k, without an integer division.
func mirror(k, m int) int {
	if k == 0 {
		return 0
	}
	return m - k
}

// realMagnitudes writes |X_k| for bins 0..n/2 of the real-input signal
// packed and transformed in z: the square roots of realPower's bins.
// The Nyquist bin is |real(z0) − imag(z0)| itself, not the root of its
// square, which differs when the square underflows.
func (p *FFTPlan) realMagnitudes(z []complex128, dst []float64) {
	m := p.n / 2
	realPowerBins(dst[:m], z, p.realTw)
	for k, v := range dst[:m] {
		dst[k] = math.Sqrt(v)
	}
	dst[m] = math.Abs(real(z[0]) - imag(z[0]))
}

// realPower writes |X_k|² for bins 0..n/2 of the real-input signal packed
// and transformed in z (length n/2).
func (p *FFTPlan) realPower(z []complex128, dst []float64) {
	m := p.n / 2
	realPowerBins(dst[:m], z, p.realTw)
	nyq := real(z[0]) - imag(z[0])
	dst[m] = nyq * nyq
}

// realPowerGeneric is the portable unpack loop, the oracle of the amd64
// kernel. For each bin k < m = len(z) of the packed, transformed
// half-size spectrum z it forms
//
//	X[k] = E_k + w^k·O_k,  w = exp(-2πi/n)
//
// with E/O the even/odd-sample sub-spectra reconstructed from z's
// conjugate symmetry, and writes |X[k]|² to dst[k]. tw holds w^k as in
// FFTPlan.realTw; dst and tw must be at least as long as z.
func realPowerGeneric(dst []float64, z, tw []complex128) {
	m := len(z)
	for k := 0; k < m; k++ {
		zr := cmplx.Conj(z[mirror(k, m)])
		e := (z[k] + zr) * 0.5
		o := (z[k] - zr) * complex(0, -0.5)
		xk := e + tw[k]*o
		re, im := real(xk), imag(xk)
		dst[k] = re*re + im*im
	}
}

// RealPower computes the power spectrum |X_k|² of the real n-point
// signal x into dst (length n/2+1). Scratch comes from the plan's pool;
// nothing pooled escapes. Even power-of-two sizes use the packed
// half-size transform, others the full complex transform.
func (p *FFTPlan) RealPower(dst []float64, x []float64) error {
	if len(x) != p.n {
		return fmt.Errorf(errPlanSize, len(x), p.n)
	}
	if want := p.n/2 + 1; len(dst) != want {
		return fmt.Errorf("dsp: power length %d, want %d for plan size %d", len(dst), want, p.n)
	}
	if p.canPackReal() {
		zptr := p.half.acquire()
		z := *zptr
		p.packReal(z, x)
		p.half.butterflies(z, false)
		p.realPower(z, dst)
		p.half.release(zptr)
		return nil
	}
	fptr := p.acquire()
	full := *fptr
	for i, v := range x {
		full[i] = complex(v, 0)
	}
	p.transform(full, false)
	for k := range dst {
		re, im := real(full[k]), imag(full[k])
		dst[k] = re*re + im*im
	}
	p.release(fptr)
	return nil
}

// windowKey addresses one cached coefficient table.
type windowKey struct {
	w Window
	n int
}

// windowCache maps (window, size) → the shared []float64 coefficient
// table, filled on first use. Entries are read-only once stored.
var windowCache sync.Map // windowKey → []float64

// cachedCoefficients returns the shared coefficient table for (w, n).
// Callers must treat the slice as read-only.
func (w Window) cachedCoefficients(n int) ([]float64, error) {
	if err := validateLength(w.String(), n); err != nil {
		return nil, err
	}
	key := windowKey{w, n}
	if v, ok := windowCache.Load(key); ok {
		return v.([]float64), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = w.at(i, n)
	}
	v, _ := windowCache.LoadOrStore(key, out)
	return v.([]float64), nil
}
