//go:build !amd64

package dsp

// radix2Stages off amd64 is the portable butterfly loop.
func radix2Stages(x, tw []complex128) { radix2StagesGeneric(x, tw) }

// realPowerBins off amd64 is the portable unpack loop.
func realPowerBins(dst []float64, z, tw []complex128) { realPowerGeneric(dst, z, tw) }
