// Exact Mahalanobis sums for GMM.logLikelihoods: the AVX2 kernel behind
// mahaSweep (exact_amd64.go). The four lanes of a ymm register are four
// frames; the component's mean and variance at dimension d are broadcast
// to all lanes. Per lane and per d the kernel computes
//
//	maha += (x − μ)·(x − μ) / σ²
//
// in componentLogLik's order, from maha = +0, with VSUBPD, VMULPD,
// VDIVPD and VADDPD. No FMA and no reciprocal: each rounds differently
// from the scalar loop.

#include "textflag.h"

// func mahaSweep(xt []float64, means, vars [][]float64, out []float64)
TEXT ·mahaSweep(SB), NOSPLIT, $0-96
	MOVQ xt_base+0(FP), SI
	MOVQ xt_len+8(FP), CX
	SHRQ $2, CX               // dim
	MOVQ means_base+24(FP), R8
	MOVQ means_len+32(FP), R10 // k
	MOVQ vars_base+48(FP), R9
	MOVQ out_base+72(FP), DI
	TESTQ R10, R10
	JE   done

comp:
	MOVQ   (R8), AX // means[c]
	MOVQ   (R9), BX // vars[c]
	VXORPD Y0, Y0, Y0
	MOVQ   SI, DX
	MOVQ   CX, R11
	TESTQ  R11, R11
	JE     store

dim:
	VBROADCASTSD (AX), Y1
	VBROADCASTSD (BX), Y2
	VMOVUPD      (DX), Y3
	VSUBPD       Y1, Y3, Y3 // x − μ
	VMULPD       Y3, Y3, Y3
	VDIVPD       Y2, Y3, Y3
	VADDPD       Y3, Y0, Y0
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $32, DX
	DECQ         R11
	JNE          dim

store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $24, R8 // next slice header
	ADDQ    $24, R9
	DECQ    R10
	JNE     comp

done:
	VZEROUPPER
	RET
