// Sweep kernels for the fast scoring path: per-component Mahalanobis
// quadratic forms of one padded frame. quadSweepSSE is plain SSE
// (guaranteed on every amd64), four dimensions per instruction;
// quadSweepAVX2 is the eight-wide variant the Go dispatcher selects
// after its one-time CPUID/XGETBV probe.
//
// Summation order is fixed and mirrored exactly by quadSweepGeneric:
// even-numbered 4-dim blocks accumulate into one lane vector, odd blocks
// into another, the two are added lane-wise, and the lanes reduce as
// (l0+l2) + (l1+l3). A ymm accumulator preserves that order for free —
// its low half carries the even-block lanes and its high half the odd —
// and neither kernel uses FMA, whose fused rounding would diverge.
// TestQuadSweepMatchesGeneric pins bit equality.
//
// stride == 16 — every 13-dim MFCC model — takes a fully unrolled path:
// the frame stays in registers across the whole component loop and
// the blocks use independent accumulators (same summation order,
// no add-chain stalls).

#include "textflag.h"

// func quadSweepSSE(means, invVars, xf, out []float32, k, stride int)
TEXT ·quadSweepSSE(SB), NOSPLIT, $0-112
	MOVQ means_base+0(FP), SI
	MOVQ invVars_base+24(FP), DX
	MOVQ xf_base+48(FP), R8
	MOVQ out_base+72(FP), DI
	MOVQ k+96(FP), R10
	MOVQ stride+104(FP), R11
	TESTQ R10, R10
	JE done
	CMPQ R11, $16
	JE fast16

comp:
	XORPS X0, X0
	XORPS X1, X1
	MOVQ R8, BX  // frame cursor, reset per component row
	MOVQ R11, CX
	SHRQ $3, CX  // 8-dim double blocks
	JE rem

block8:
	MOVUPS (SI), X2
	MOVUPS (BX), X3
	SUBPS X2, X3
	MULPS X3, X3
	MOVUPS (DX), X4
	MULPS X4, X3
	ADDPS X3, X0
	MOVUPS 16(SI), X5
	MOVUPS 16(BX), X6
	SUBPS X5, X6
	MULPS X6, X6
	MOVUPS 16(DX), X7
	MULPS X7, X6
	ADDPS X6, X1
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNE block8

rem:
	// stride is a multiple of 4: at most one trailing 4-dim block.
	MOVQ R11, CX
	ANDQ $4, CX
	JE hsum
	MOVUPS (SI), X2
	MOVUPS (BX), X3
	SUBPS X2, X3
	MULPS X3, X3
	MOVUPS (DX), X4
	MULPS X4, X3
	ADDPS X3, X0
	ADDQ $16, SI
	ADDQ $16, DX

hsum:
	ADDPS X1, X0         // lane-wise: even-block + odd-block partials
	MOVAPS X0, X1
	MOVHLPS X0, X1       // lanes 0,1 of X1 = lanes 2,3 of X0
	ADDPS X1, X0         // lane0 = l0+l2, lane1 = l1+l3
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1 // broadcast lane1
	ADDSS X1, X0         // (l0+l2) + (l1+l3)
	MOVSS X0, (DI)
	ADDQ $4, DI
	DECQ R10
	JNE comp

done:
	RET

fast16:
	MOVUPS (R8), X12     // frame, resident for the whole sweep
	MOVUPS 16(R8), X13
	MOVUPS 32(R8), X14
	MOVUPS 48(R8), X15

comp16:
	MOVUPS (SI), X2      // block 0
	MOVAPS X12, X3
	SUBPS X2, X3
	MULPS X3, X3
	MOVUPS (DX), X4
	MULPS X4, X3
	MOVUPS 16(SI), X5    // block 1
	MOVAPS X13, X6
	SUBPS X5, X6
	MULPS X6, X6
	MOVUPS 16(DX), X7
	MULPS X7, X6
	MOVUPS 32(SI), X8    // block 2
	MOVAPS X14, X9
	SUBPS X8, X9
	MULPS X9, X9
	MOVUPS 32(DX), X10
	MULPS X10, X9
	MOVUPS 48(SI), X11   // block 3
	MOVAPS X15, X0
	SUBPS X11, X0
	MULPS X0, X0
	MOVUPS 48(DX), X1
	MULPS X1, X0
	ADDPS X9, X3         // even lanes: b0 + b2
	ADDPS X0, X6         // odd lanes:  b1 + b3
	ADDPS X6, X3         // lane-wise total
	MOVAPS X3, X1
	MOVHLPS X3, X1
	ADDPS X1, X3         // lane0 = l0+l2, lane1 = l1+l3
	MOVAPS X3, X1
	SHUFPS $0x55, X1, X1
	ADDSS X1, X3         // (l0+l2) + (l1+l3)
	MOVSS X3, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $4, DI
	DECQ R10
	JNE comp16
	RET

// func quadSweepAVX2(means, invVars, xf, out []float32, k, stride int)
// Caller guarantees stride % 8 == 0 (whole 8-dim double blocks only:
// a trailing 4-dim block would change the summation order).
TEXT ·quadSweepAVX2(SB), NOSPLIT, $0-112
	MOVQ means_base+0(FP), SI
	MOVQ invVars_base+24(FP), DX
	MOVQ xf_base+48(FP), R8
	MOVQ out_base+72(FP), DI
	MOVQ k+96(FP), R10
	MOVQ stride+104(FP), R11
	TESTQ R10, R10
	JE adone
	CMPQ R11, $16
	JE afast16

acomp:
	VXORPS Y0, Y0, Y0
	MOVQ R8, BX  // frame cursor, reset per component row
	MOVQ R11, CX
	SHRQ $3, CX  // 8-dim double blocks

ablock:
	VMOVUPS (SI), Y1
	VMOVUPS (BX), Y2
	VSUBPS Y1, Y2, Y2   // x − mean
	VMULPS Y2, Y2, Y2
	VMOVUPS (DX), Y3
	VMULPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0   // low lanes: even blocks, high: odd
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNE ablock

	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0    // lane-wise: even-block + odd-block partials
	VPERMILPS $0x4E, X0, X1
	VADDPS X1, X0, X0    // lane0 = l0+l2, lane1 = l1+l3
	VPERMILPS $0x55, X0, X1
	VADDSS X1, X0, X0    // (l0+l2) + (l1+l3)
	VMOVSS X0, (DI)
	ADDQ $4, DI
	DECQ R10
	JNE acomp
	VZEROUPPER

adone:
	RET

afast16:
	VMOVUPS (R8), Y14    // frame, resident for the whole sweep
	VMOVUPS 32(R8), Y15
	MOVQ R10, CX
	SHRQ $2, CX          // component quads: four independent reduce
	JE atail16           // chains per iteration hide the horizontal
	                     // add latency

aquad16:
	VMOVUPS (SI), Y1     // component i (4-dim blocks b0|b1, b2|b3)
	VSUBPS Y1, Y14, Y1
	VMULPS Y1, Y1, Y1
	VMULPS (DX), Y1, Y1
	VMOVUPS 32(SI), Y2
	VSUBPS Y2, Y15, Y2
	VMULPS Y2, Y2, Y2
	VMULPS 32(DX), Y2, Y2
	VADDPS Y2, Y1, Y1    // low: b0+b2 (even lanes), high: b1+b3 (odd)
	VMOVUPS 64(SI), Y3   // component i+1
	VSUBPS Y3, Y14, Y3
	VMULPS Y3, Y3, Y3
	VMULPS 64(DX), Y3, Y3
	VMOVUPS 96(SI), Y4
	VSUBPS Y4, Y15, Y4
	VMULPS Y4, Y4, Y4
	VMULPS 96(DX), Y4, Y4
	VADDPS Y4, Y3, Y3
	VMOVUPS 128(SI), Y5  // component i+2
	VSUBPS Y5, Y14, Y5
	VMULPS Y5, Y5, Y5
	VMULPS 128(DX), Y5, Y5
	VMOVUPS 160(SI), Y6
	VSUBPS Y6, Y15, Y6
	VMULPS Y6, Y6, Y6
	VMULPS 160(DX), Y6, Y6
	VADDPS Y6, Y5, Y5
	VMOVUPS 192(SI), Y7  // component i+3
	VSUBPS Y7, Y14, Y7
	VMULPS Y7, Y7, Y7
	VMULPS 192(DX), Y7, Y7
	VMOVUPS 224(SI), Y8
	VSUBPS Y8, Y15, Y8
	VMULPS Y8, Y8, Y8
	VMULPS 224(DX), Y8, Y8
	VADDPS Y8, Y7, Y7
	VEXTRACTF128 $1, Y1, X2
	VADDPS X2, X1, X1
	VEXTRACTF128 $1, Y3, X4
	VADDPS X4, X3, X3
	VEXTRACTF128 $1, Y5, X6
	VADDPS X6, X5, X5
	VEXTRACTF128 $1, Y7, X8
	VADDPS X8, X7, X7
	VPERMILPS $0x4E, X1, X2
	VADDPS X2, X1, X1
	VPERMILPS $0x4E, X3, X4
	VADDPS X4, X3, X3
	VPERMILPS $0x4E, X5, X6
	VADDPS X6, X5, X5
	VPERMILPS $0x4E, X7, X8
	VADDPS X8, X7, X7
	VPERMILPS $0x55, X1, X2
	VADDSS X2, X1, X1
	VPERMILPS $0x55, X3, X4
	VADDSS X4, X3, X3
	VPERMILPS $0x55, X5, X6
	VADDSS X6, X5, X5
	VPERMILPS $0x55, X7, X8
	VADDSS X8, X7, X7
	VMOVSS X1, (DI)
	VMOVSS X3, 4(DI)
	VMOVSS X5, 8(DI)
	VMOVSS X7, 12(DI)
	ADDQ $256, SI
	ADDQ $256, DX
	ADDQ $16, DI
	DECQ CX
	JNE aquad16

atail16:
	ANDQ $3, R10         // 1-3 leftover component rows
	JE adone16

atail16row:
	VMOVUPS (SI), Y1
	VSUBPS Y1, Y14, Y1
	VMULPS Y1, Y1, Y1
	VMULPS (DX), Y1, Y1
	VMOVUPS 32(SI), Y2
	VSUBPS Y2, Y15, Y2
	VMULPS Y2, Y2, Y2
	VMULPS 32(DX), Y2, Y2
	VADDPS Y2, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPS X2, X1, X1
	VPERMILPS $0x4E, X1, X2
	VADDPS X2, X1, X1
	VPERMILPS $0x55, X1, X2
	VADDSS X2, X1, X1
	VMOVSS X1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $4, DI
	DECQ R10
	JNE atail16row

adone16:
	VZEROUPPER
	RET

// func topCSelectAVX2(scores []float32, vals []float64, idx []int32)
// c = len(vals) rounds of branchless max-extraction over the k =
// len(scores) score buffer: a vectorized max pass, an equality scan for
// the lowest lane holding the max (the tie rule), record into vals
// (widened) and idx, then knock the winner out with -Inf. The caller
// guarantees k % 8 == 0, k ≥ 8 and 1 ≤ c ≤ k. Mirrors topCExtract
// bit for bit.
TEXT ·topCSelectAVX2(SB), NOSPLIT, $0-72
	MOVQ scores_base+0(FP), SI
	MOVQ scores_len+8(FP), R10
	MOVQ vals_base+24(FP), DI
	MOVQ vals_len+32(FP), R11
	MOVQ idx_base+48(FP), R9
	TESTQ R11, R11
	JE sdone

sround:
	// Pass 1: lane-wise running max over all k scores.
	VMOVUPS (SI), Y0
	MOVQ SI, BX
	ADDQ $32, BX
	MOVQ R10, CX
	SHRQ $3, CX
	DECQ CX
	JE sredmax

smaxblk:
	VMOVUPS (BX), Y1
	VMAXPS Y1, Y0, Y0
	ADDQ $32, BX
	DECQ CX
	JNE smaxblk

sredmax:
	// Horizontal max into lane 0, then broadcast.
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X0
	VBROADCASTSS X0, Y2

	// Pass 2: lowest index whose score equals the max.
	MOVQ SI, BX
	MOVQ R10, CX
	SHRQ $3, CX
	XORQ AX, AX

sfindblk:
	VMOVUPS (BX), Y1
	VCMPPS $0, Y2, Y1, Y3
	VMOVMSKPS Y3, DX
	TESTL DX, DX
	JNE sfound
	ADDQ $32, BX
	ADDQ $8, AX
	DECQ CX
	JNE sfindblk
	// Unreachable for non-NaN scores (the max came from the buffer);
	// degrade to index 0 rather than read past the slice.
	XORQ AX, AX
	JMP srecord

sfound:
	BSFL DX, DX
	ADDQ DX, AX

srecord:
	MOVL AX, (R9)
	ADDQ $4, R9
	VCVTSS2SD X0, X4, X4
	VMOVSD X4, (DI)
	ADDQ $8, DI
	MOVL $0xFF800000, R13  // float32 -Inf knocks the winner out
	MOVL R13, (SI)(AX*4)
	DECQ R11
	JNE sround
	VZEROUPPER

sdone:
	RET

// laneMasks32 holds eight one-hot ymm blend masks: row r has all bits
// set in 32-bit lane r. negInf32 is float32 -Inf for knockouts; half32
// scales quadratic forms during the fused conversion.
GLOBL laneMasks32<>(SB), RODATA, $256
DATA laneMasks32<>+0(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+36(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+72(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+108(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+144(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+180(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+216(SB)/4, $0xFFFFFFFF
DATA laneMasks32<>+252(SB)/4, $0xFFFFFFFF
GLOBL negInf32<>(SB), RODATA, $4
DATA negInf32<>+0(SB)/4, $0xFF800000
GLOBL half32<>(SB), RODATA, $4
DATA half32<>+0(SB)/4, $0x3F000000

// func topCScore32AVX2(q, consts []float32, vals []float64, idx []int32)
// The fused k = 32 score-and-select kernel: converts raw quadratic
// forms to per-component log-densities (consts - q/2, float32, the same
// exact values as the scalar loop in scoreSelect) and extracts the
// len(vals) best without the scores ever touching memory - they live in
// four ymm registers for the whole extraction. Per-block horizontal
// maxima (X8-X11) are maintained incrementally - only the block that
// loses a lane is re-reduced - and knockouts blend -Inf through a
// one-hot lane mask. Extraction order and the lowest-index tie rule
// match topCExtract bit for bit.
TEXT ·topCScore32AVX2(SB), NOSPLIT, $0-96
	MOVQ q_base+0(FP), SI
	MOVQ consts_base+24(FP), BX
	MOVQ vals_base+48(FP), DI
	MOVQ vals_len+56(FP), R11
	MOVQ idx_base+72(FP), R9
	TESTQ R11, R11
	JE t32done
	VBROADCASTSS half32<>(SB), Y1
	VMOVUPS (SI), Y4
	VMULPS Y1, Y4, Y4
	VMOVUPS (BX), Y0
	VSUBPS Y4, Y0, Y4
	VMOVUPS 32(SI), Y5
	VMULPS Y1, Y5, Y5
	VMOVUPS 32(BX), Y0
	VSUBPS Y5, Y0, Y5
	VMOVUPS 64(SI), Y6
	VMULPS Y1, Y6, Y6
	VMOVUPS 64(BX), Y0
	VSUBPS Y6, Y0, Y6
	VMOVUPS 96(SI), Y7
	VMULPS Y1, Y7, Y7
	VMOVUPS 96(BX), Y0
	VSUBPS Y7, Y0, Y7
	VBROADCASTSS negInf32<>(SB), Y13
	LEAQ laneMasks32<>(SB), R15

	// Initial horizontal max of each 8-lane block into X8..X11.
	VEXTRACTF128 $1, Y4, X0
	VMAXPS X0, X4, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X8
	VEXTRACTF128 $1, Y5, X0
	VMAXPS X0, X5, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X9
	VEXTRACTF128 $1, Y6, X0
	VMAXPS X0, X6, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X10
	VEXTRACTF128 $1, Y7, X0
	VMAXPS X0, X7, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X11

t32round:
	// Global max m (X0) and its block (AX); a strictly-greater update
	// keeps the lowest block on ties, which also holds the lowest
	// qualifying lane.
	VMOVAPS X8, X0
	XORQ AX, AX
	MOVQ $1, R13
	VUCOMISS X0, X9
	CMOVQHI R13, AX
	VMAXSS X9, X0, X0
	MOVQ $2, R13
	VUCOMISS X0, X10
	CMOVQHI R13, AX
	VMAXSS X10, X0, X0
	MOVQ $3, R13
	VUCOMISS X0, X11
	CMOVQHI R13, AX
	VMAXSS X11, X0, X0
	VBROADCASTSS X0, Y2

	// Locate the lowest matching lane of the winning block, blend -Inf
	// over it and re-reduce that block's horizontal max.
	CMPQ AX, $1
	JE t32b1
	JA t32b23
	VCMPPS $0, Y2, Y4, Y3
	VMOVMSKPS Y3, DX
	TESTL DX, DX
	JE t32safe
	BSFL DX, DX
	MOVQ DX, R13
	SHLQ $5, R13
	VMOVUPS (R15)(R13*1), Y3
	VBLENDVPS Y3, Y13, Y4, Y4
	VEXTRACTF128 $1, Y4, X0
	VMAXPS X0, X4, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X8
	JMP t32record

t32b1:
	VCMPPS $0, Y2, Y5, Y3
	VMOVMSKPS Y3, DX
	TESTL DX, DX
	JE t32safe
	BSFL DX, DX
	MOVQ DX, R13
	SHLQ $5, R13
	VMOVUPS (R15)(R13*1), Y3
	VBLENDVPS Y3, Y13, Y5, Y5
	VEXTRACTF128 $1, Y5, X0
	VMAXPS X0, X5, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X9
	JMP t32record

t32b23:
	CMPQ AX, $3
	JE t32b3
	VCMPPS $0, Y2, Y6, Y3
	VMOVMSKPS Y3, DX
	TESTL DX, DX
	JE t32safe
	BSFL DX, DX
	MOVQ DX, R13
	SHLQ $5, R13
	VMOVUPS (R15)(R13*1), Y3
	VBLENDVPS Y3, Y13, Y6, Y6
	VEXTRACTF128 $1, Y6, X0
	VMAXPS X0, X6, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X10
	JMP t32record

t32b3:
	VCMPPS $0, Y2, Y7, Y3
	VMOVMSKPS Y3, DX
	TESTL DX, DX
	JE t32safe
	BSFL DX, DX
	MOVQ DX, R13
	SHLQ $5, R13
	VMOVUPS (R15)(R13*1), Y3
	VBLENDVPS Y3, Y13, Y7, Y7
	VEXTRACTF128 $1, Y7, X0
	VMAXPS X0, X7, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x55, X0, X1
	VMAXSS X1, X0, X11
	JMP t32record

t32safe:
	// No lane compared equal (NaN scores): degrade to lane 0 of the
	// winning block without a knockout rather than misindex.
	XORL DX, DX

t32record:
	// Y2 lane 0 still holds m; AX:DX are block and lane.
	LEAQ (DX)(AX*8), AX
	MOVL AX, (R9)
	ADDQ $4, R9
	VCVTSS2SD X2, X3, X3
	VMOVSD X3, (DI)
	ADDQ $8, DI
	DECQ R11
	JNE t32round
	VZEROUPPER

t32done:
	RET
