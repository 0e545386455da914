// Radix-2 butterfly stages of the power-of-two FFT, the AVX2 twin of
// radix2StagesGeneric. Every butterfly performs Go's complex128
// operations, operation for operation:
//
//	b  = h·w:  re = hr·wr − hi·wi,  im = hi·wr + hr·wi
//	lo = a + b,  hi = a − b
//
// The product's two terms are formed by two VMULPDs and combined by one
// VADDSUBPD (subtract in the real lane, add in the imaginary lane).
// IEEE addition and multiplication commute, so each result has the bits
// of the compiled Go loop. No FMA is used: a fused multiply-add rounds
// once where Go rounds twice.
//
// The first stage (half = 1) runs one butterfly per xmm register; every
// later stage runs two per ymm register, since half is then even.

#include "textflag.h"

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
