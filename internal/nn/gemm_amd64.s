#include "textflag.h"

// AVX2 inner loops for gemm.go. Every element is computed with the same
// IEEE operations, in the same order, as the Go loop it replaces:
// separate VMULPD/VADDPD (or VMULSD/VADDSD in tails), never FMA.

// DOT4X8 is the k-loop shared by the two 4×8 tiles below. Eight
// accumulators, Y0-Y7, hold the 4×8 block of C, two YMM per row of A.
// Each k-step loads one packed 8-wide row of Bᵀ and broadcasts one A
// value per row: s = s + a*b, starting from s = 0, in p order. It leaves
// c in DI and ldc, in bytes, in R11.
#define DOT4X8 \
	MOVQ a+0(FP), SI; \
	MOVQ lda+8(FP), R11; \
	SHLQ $3, R11; \
	LEAQ (SI)(R11*1), R8; \
	LEAQ (R8)(R11*1), R9; \
	LEAQ (R9)(R11*1), R10; \
	MOVQ panel+16(FP), DX; \
	MOVQ k+24(FP), CX; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	XORQ BX, BX; \
	TESTQ CX, CX; \
	JZ   dotdone; \
dotloop: \
	VMOVUPD (DX), Y8; \
	VMOVUPD 32(DX), Y9; \
	VBROADCASTSD (SI)(BX*8), Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, Y0, Y0; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, Y1, Y1; \
	VBROADCASTSD (R8)(BX*8), Y13; \
	VMULPD Y8, Y13, Y11; \
	VADDPD Y11, Y2, Y2; \
	VMULPD Y9, Y13, Y12; \
	VADDPD Y12, Y3, Y3; \
	VBROADCASTSD (R9)(BX*8), Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, Y4, Y4; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, Y5, Y5; \
	VBROADCASTSD (R10)(BX*8), Y13; \
	VMULPD Y8, Y13, Y11; \
	VADDPD Y11, Y6, Y6; \
	VMULPD Y9, Y13, Y12; \
	VADDPD Y12, Y7, Y7; \
	ADDQ $64, DX; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT  dotloop; \
dotdone: \
	MOVQ c+32(FP), DI; \
	MOVQ ldc+40(FP), R11; \
	SHLQ $3, R11

// TRANSPOSE4 transposes the 4×4 block whose rows are r0-r3 and stores
// its columns, four values each, at DI, DI+ldc, DI+2*ldc and DI+3*ldc,
// leaving DI at DI+4*ldc. Only moves and shuffles: no value changes.
#define TRANSPOSE4(r0, r1, r2, r3) \
	VUNPCKLPD r1, r0, Y8; \
	VUNPCKHPD r1, r0, Y9; \
	VUNPCKLPD r3, r2, Y10; \
	VUNPCKHPD r3, r2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15; \
	VMOVUPD Y12, (DI); \
	ADDQ R11, DI; \
	VMOVUPD Y13, (DI); \
	ADDQ R11, DI; \
	VMOVUPD Y14, (DI); \
	ADDQ R11, DI; \
	VMOVUPD Y15, (DI); \
	ADDQ R11, DI

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4AVX2(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// c[j] = c[j] + (((a0*b0[j] + a1*b1[j]) + a2*b2[j]) + a3*b3[j])
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   axpy4tail

axpy4loop:
	VMULPD (SI)(BX*8), Y0, Y4
	VMULPD (R8)(BX*8), Y1, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R9)(BX*8), Y2, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R10)(BX*8), Y3, Y5
	VADDPD Y5, Y4, Y4
	VADDPD (DI)(BX*8), Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, DX
	JLT  axpy4loop

axpy4tail:
	CMPQ BX, CX
	JGE  axpy4done
	VMULSD (SI)(BX*8), X0, X4
	VMULSD (R8)(BX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(BX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(BX*8), X3, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(BX*8), X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ BX
	JMP  axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func axpy1AVX2(c, b *float64, n int, a float64)
//
// c[j] = c[j] + a*b[j]
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   axpy1tail

axpy1loop:
	VMULPD (SI)(BX*8), Y0, Y4
	VADDPD (DI)(BX*8), Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, DX
	JLT  axpy1loop

axpy1tail:
	CMPQ BX, CX
	JGE  axpy1done
	VMULSD (SI)(BX*8), X0, X4
	VADDSD (DI)(BX*8), X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ BX
	JMP  axpy1tail

axpy1done:
	VZEROUPPER
	RET

// func dot4x8AVX2(a *float64, lda int, panel *float64, k int, c *float64, ldc int)
//
// Stores row r of the block at c[r*ldc:].
TEXT ·dot4x8AVX2(SB), NOSPLIT, $0-48
	DOT4X8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ R11, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ R11, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ R11, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func dot4x8TAVX2(a *float64, lda int, panel *float64, k int, c *float64, ldc int)
//
// The same block as dot4x8AVX2, stored transposed: column j of the block
// at c[j*ldc:], four values wide.
TEXT ·dot4x8TAVX2(SB), NOSPLIT, $0-48
	DOT4X8
	TRANSPOSE4(Y0, Y2, Y4, Y6)
	TRANSPOSE4(Y1, Y3, Y5, Y7)
	VZEROUPPER
	RET
