package dsp

import "voiceguard/internal/cpuid"

// radix2Stages runs the butterfly stages of radix2StagesGeneric. With
// AVX2 it takes radix2StagesAVX2 (fft_amd64.s), which performs the same
// float64 operations on every element (the complex product as
// hr·tr − hi·ti and hi·tr + hr·ti, then a ± b, no FMA), so its output
// has the same bits; only a NaN's payload may differ.
func radix2Stages(x, tw []complex128) {
	if cpuid.AVX2 {
		radix2StagesAVX2(x, tw)
		return
	}
	radix2StagesGeneric(x, tw)
}

//go:noescape
func radix2StagesAVX2(x, tw []complex128)

// realPowerBins writes the unpacked power bins of realPowerGeneric.
// With AVX2 it takes realPowerAVX2 (fft_amd64.s), which performs the
// same float64 operations for each bin, two bins per ymm register and
// no FMA, so its output has the same bits; only a NaN's payload may
// differ.
func realPowerBins(dst []float64, z, tw []complex128) {
	if cpuid.AVX2 {
		realPowerAVX2(dst, z, tw)
		return
	}
	realPowerGeneric(dst, z, tw)
}

//go:noescape
func realPowerAVX2(dst []float64, z, tw []complex128)
