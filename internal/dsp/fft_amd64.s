// The AVX2 twins of the FFT's portable loops: radix2StagesAVX2 runs
// the butterfly stages of radix2StagesGeneric, and realPowerAVX2 the
// real-input unpack of realPowerGeneric. Each performs Go's complex128
// operations, operation for operation. A complex product h·w is
//
//	re = hr·wr − hi·wi,  im = hi·wr + hr·wi
//
// with its two terms formed by two VMULPDs and combined by one
// VADDSUBPD (subtract in the real lane, add in the imaginary lane).
// IEEE addition and multiplication commute, so each result has the bits
// of the compiled Go loop. No FMA is used: a fused multiply-add rounds
// once where Go rounds twice.

#include "textflag.h"

// Butterflies: lo = a + h·w, hi = a − h·w. The first stage (half = 1)
// runs one butterfly per xmm register; every later stage runs two per
// ymm register, since half is then even.
//
// func radix2StagesAVX2(x, tw []complex128)
TEXT ·radix2StagesAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ tw_base+24(FP), DI
	CMPQ CX, $2
	JB   done

	// Stage half = 1: every butterfly uses tw[0].
	VMOVDDUP (DI), X14  // [wr, wr]
	VMOVDDUP 8(DI), X15 // [wi, wi]
	MOVQ     SI, AX
	MOVQ     CX, BX
	SHRQ     $1, BX

stage1:
	VMOVUPD   (AX), X0      // a
	VMOVUPD   16(AX), X1    // h
	VPERMILPD $1, X1, X2    // [hi, hr]
	VMULPD    X14, X1, X1   // [hr·wr, hi·wr]
	VMULPD    X15, X2, X2   // [hi·wi, hr·wi]
	VADDSUBPD X2, X1, X1    // b = [hr·wr − hi·wi, hi·wr + hr·wi]
	VADDPD    X1, X0, X3
	VSUBPD    X1, X0, X0
	VMOVUPD   X3, (AX)
	VMOVUPD   X0, 16(AX)
	ADDQ      $32, AX
	DECQ      BX
	JNE       stage1

	// Stages half = 2, 4, …, n/2.
	MOVQ CX, R11
	SHLQ $4, R11
	ADDQ SI, R11 // end of x
	MOVQ $2, R8  // half, in elements

stage:
	CMPQ R8, CX
	JAE  done
	MOVQ R8, R10
	SHLQ $4, R10            // half, in bytes
	LEAQ -16(DI)(R10*1), R9 // &tw[half-1]
	MOVQ SI, AX  // block start

block:
	MOVQ AX, R13           // lo cursor
	LEAQ (AX)(R10*1), BX   // hi cursor
	MOVQ R9, DX            // twiddle cursor
	MOVQ R8, R12
	SHRQ $1, R12           // two butterflies per iteration

inner:
	VMOVUPD   (DX), Y4
	VMOVDDUP  Y4, Y5        // [w0r, w0r, w1r, w1r]
	VPERMILPD $0x0f, Y4, Y6 // [w0i, w0i, w1i, w1i]
	VMOVUPD   (BX), Y1      // h
	VPERMILPD $0x05, Y1, Y2 // [h0i, h0r, h1i, h1r]
	VMULPD    Y5, Y1, Y1
	VMULPD    Y6, Y2, Y2
	VADDSUBPD Y2, Y1, Y1    // b
	VMOVUPD   (R13), Y0     // a
	VADDPD    Y1, Y0, Y3
	VSUBPD    Y1, Y0, Y0
	VMOVUPD   Y3, (R13)
	VMOVUPD   Y0, (BX)
	ADDQ      $32, DX
	ADDQ      $32, BX
	ADDQ      $32, R13
	DECQ      R12
	JNE       inner

	LEAQ (AX)(R10*2), AX
	CMPQ AX, R11
	JB   block
	SHLQ $1, R8
	JMP  stage

done:
	VZEROUPPER
	RET

// Real-input unpack. Bin k of the packed spectrum z (length m) pairs
// with bin j = (m − k) mod m, and with b = conj(z[j]) Go computes
//
//	e = (z[k] + b)·complex(0.5, 0)
//	o = (z[k] − b)·complex(0, −0.5)
//	x = e + tw[k]·o,  dst[k] = xr·xr + xi·xi
//
// Both constant products are full complex products, and the kernel
// keeps their products by the constants' zero parts: they turn an
// infinite input into NaN, as Go does. z[k] + b and z[k] − b are
// formed as VADDPD of z[k] and conj(z[j]) and VADDSUBPD of z[k] and
// z[j]; ai − (−bi) and ai + bi are the same IEEE operation.

DATA unpackConst<>+0(SB)/8, $0.5
DATA unpackConst<>+8(SB)/8, $-0.5
DATA unpackConst<>+16(SB)/8, $0x0000000000000000 // conj mask: keep real,
DATA unpackConst<>+24(SB)/8, $0x8000000000000000 // flip imaginary sign
GLOBL unpackConst<>(SB), RODATA|NOPTR, $32

// UNPACK1 writes dst[k] for one bin: a = &z[k], b = &z[j], t = &tw[k],
// out = &dst[k]. It expects the constants in X12–X15 as set below and
// runs the same steps as one lane pair of the loop in realPowerAVX2:
// X2 = s = z[k] + conj(z[j]), X3 = d = z[k] − conj(z[j]),
// X4 = e = [sr·½ − si·0, si·½ + sr·0],
// X5 = o = [dr·0 − di·(−½), di·0 + dr·(−½)], X7 = tw[k]·o,
// then x = e + tw[k]·o and xr·xr + xi·xi.
#define UNPACK1(a, b, t, out) \
	VMOVUPD   (a), X0; \
	VMOVUPD   (b), X1; \
	VXORPD    X12, X1, X2; \
	VADDPD    X2, X0, X2; \
	VADDSUBPD X1, X0, X3; \
	VMULPD    X15, X2, X4; \
	VPERMILPD $1, X2, X5; \
	VMULPD    X13, X5, X5; \
	VADDSUBPD X5, X4, X4; \
	VMULPD    X13, X3, X5; \
	VPERMILPD $1, X3, X6; \
	VMULPD    X14, X6, X6; \
	VADDSUBPD X6, X5, X5; \
	VMOVDDUP  (t), X7; \
	VMOVDDUP  8(t), X6; \
	VMULPD    X7, X5, X7; \
	VPERMILPD $1, X5, X5; \
	VMULPD    X6, X5, X5; \
	VADDSUBPD X5, X7, X7; \
	VADDPD    X7, X4, X4; \
	VMULPD    X4, X4, X4; \
	VHADDPD   X4, X4, X4; \
	VMOVSD    X4, (out)

// func realPowerAVX2(dst []float64, z, tw []complex128)
TEXT ·realPowerAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ z_base+24(FP), SI
	MOVQ z_len+32(FP), CX
	MOVQ tw_base+48(FP), DX
	TESTQ CX, CX
	JE    unpackDone

	LEAQ           unpackConst<>(SB), AX
	VBROADCASTSD   (AX), Y15     // ½
	VBROADCASTSD   8(AX), Y14    // −½
	VXORPD         Y13, Y13, Y13 // 0
	VBROADCASTF128 16(AX), Y12   // conj mask

	// Bin 0 pairs with itself.
	UNPACK1(SI, SI, DX, DI)
	CMPQ CX, $2
	JB   unpackDone

	// Bins 1 … m−2, two per ymm register: bins k and k+1 pair with
	// m−k and m−k−1, loaded from &z[m−k−1] and swapped by VPERMPD.
	LEAQ 16(SI), R8             // &z[k]
	MOVQ CX, AX
	SHLQ $4, AX
	LEAQ -32(SI)(AX*1), R9      // &z[m−k−1]
	LEAQ 16(DX), R10            // &tw[k]
	LEAQ 8(DI), R11             // &dst[k]
	MOVQ CX, BX
	SHRQ $1, BX
	DECQ BX                     // (m−2)/2 pairs
	JE   unpackLast

unpackPair:
	VMOVUPD   (R8), Y0
	VPERMPD   $0x4e, (R9), Y1   // [z[m−k], z[m−k−1]]
	VXORPD    Y12, Y1, Y2
	VADDPD    Y2, Y0, Y2        // s
	VADDSUBPD Y1, Y0, Y3        // d
	VMULPD    Y15, Y2, Y4
	VPERMILPD $0x05, Y2, Y5
	VMULPD    Y13, Y5, Y5
	VADDSUBPD Y5, Y4, Y4        // e
	VMULPD    Y13, Y3, Y5
	VPERMILPD $0x05, Y3, Y6
	VMULPD    Y14, Y6, Y6
	VADDSUBPD Y6, Y5, Y5        // o
	VMOVUPD   (R10), Y6
	VMOVDDUP  Y6, Y7            // [t0r, t0r, t1r, t1r]
	VPERMILPD $0x0f, Y6, Y6     // [t0i, t0i, t1i, t1i]
	VMULPD    Y7, Y5, Y7
	VPERMILPD $0x05, Y5, Y5
	VMULPD    Y6, Y5, Y5
	VADDSUBPD Y5, Y7, Y7        // tw·o
	VADDPD    Y7, Y4, Y4        // x
	VMULPD    Y4, Y4, Y4
	VHADDPD   Y4, Y4, Y4        // [p0, p0, p1, p1]
	VPERMPD   $0x08, Y4, Y4     // [p0, p1, …]
	VMOVUPD   X4, (R11)
	ADDQ      $32, R8
	SUBQ      $32, R9
	ADDQ      $32, R10
	ADDQ      $16, R11
	DECQ      BX
	JNE       unpackPair

unpackLast:
	// Bin m−1 pairs with bin 1; R8, R10 and R11 now point at it.
	LEAQ 16(SI), R9
	UNPACK1(R8, R9, R10, R11)

unpackDone:
	VZEROUPPER
	RET
