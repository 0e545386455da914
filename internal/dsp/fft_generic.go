//go:build !amd64

package dsp

// radix2Stages off amd64 is the portable butterfly loop.
func radix2Stages(x, tw []complex128) { radix2StagesGeneric(x, tw) }
