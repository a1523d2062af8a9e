#include "textflag.h"

// AVX2 inner loops for gemm.go, Adam's update and ReLU. Every element is
// computed with the same IEEE operations, in the same order, as the Go
// loop it replaces: separate VMULPD/VADDPD (or VMULSD/VADDSD in tails),
// never FMA.

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

// func adamAVX2(w, grad, m, v *float64, n int, k *adamCoef)
//
// Adam's update of elements [0, n), n a multiple of 4, with the
// operations of adamUpdateGo in its grouping:
//
//	m[j] = c1*g[j] + b1*m[j]
//	v[j] = b2*v[j] + g[j]*(c2*g[j])
//	w[j] = w[j] - step*m[j]/(eps + sqrt(invBC2*v[j]))
//
// VSQRTPD and VDIVPD round exactly as SQRTSD and DIVSD. Each operand
// sits where the Go compiler puts it in adamUpdateGo (go1.24, no -race),
// so even the NaN payload that wins where two NaNs meet agrees there.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSD 0(AX), Y0  // b1
	VBROADCASTSD 8(AX), Y1  // c1
	VBROADCASTSD 16(AX), Y2 // b2
	VBROADCASTSD 24(AX), Y3 // c2
	VBROADCASTSD 32(AX), Y4 // step
	VBROADCASTSD 40(AX), Y5 // invBC2
	VBROADCASTSD 48(AX), Y6 // eps
	XORQ BX, BX
	TESTQ CX, CX
	JZ   adamdone

adamloop:
	VMOVUPD (SI)(BX*8), Y7
	VMULPD  (R8)(BX*8), Y0, Y8
	VMULPD  Y7, Y1, Y9
	VADDPD  Y8, Y9, Y9
	VMOVUPD Y9, (R8)(BX*8)
	VMOVUPD (R9)(BX*8), Y10
	VMULPD  Y2, Y10, Y10
	VMULPD  Y7, Y3, Y11
	VMULPD  Y11, Y7, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(BX*8)
	VMULPD  Y9, Y4, Y12
	VMULPD  Y10, Y5, Y13
	VSQRTPD Y13, Y13
	VADDPD  Y13, Y6, Y13
	VDIVPD  Y13, Y12, Y12
	VMOVUPD (DI)(BX*8), Y14
	VSUBPD  Y12, Y14, Y14
	VMOVUPD Y14, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  adamloop

adamdone:
	VZEROUPPER
	RET

// relumask<> maps the 4-bit VMOVMSKPD of a keep mask to the four bools
// it stands for, one byte each.
DATA relumask<>+0(SB)/4, $0x00000000
DATA relumask<>+4(SB)/4, $0x00000001
DATA relumask<>+8(SB)/4, $0x00000100
DATA relumask<>+12(SB)/4, $0x00000101
DATA relumask<>+16(SB)/4, $0x00010000
DATA relumask<>+20(SB)/4, $0x00010001
DATA relumask<>+24(SB)/4, $0x00010100
DATA relumask<>+28(SB)/4, $0x00010101
DATA relumask<>+32(SB)/4, $0x01000000
DATA relumask<>+36(SB)/4, $0x01000001
DATA relumask<>+40(SB)/4, $0x01000100
DATA relumask<>+44(SB)/4, $0x01000101
DATA relumask<>+48(SB)/4, $0x01010000
DATA relumask<>+52(SB)/4, $0x01010001
DATA relumask<>+56(SB)/4, $0x01010100
DATA relumask<>+60(SB)/4, $0x01010101
GLOBL relumask<>(SB), RODATA|NOPTR, $64

// func reluAVX2(y *float64, mask *bool, n int)
//
// keep = !(y < 0) (compare predicate NLT_UQ: NaN is kept), y = y AND
// keep, mask = keep: negative values become +0 and every other value
// keeps its bits, as in reluIntoGo.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ y+0(FP), DI
	MOVQ mask+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ relumask<>(SB), R8
	VXORPD Y0, Y0, Y0
	XORQ BX, BX
	TESTQ CX, CX
	JZ   reludone

reluloop:
	VMOVUPD (DI)(BX*8), Y1
	VCMPPD  $0x15, Y0, Y1, Y2
	VANDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	VMOVMSKPD Y2, AX
	MOVL    (R8)(AX*4), DX
	MOVL    DX, (SI)(BX*1)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  reluloop

reludone:
	VZEROUPPER
	RET

// func reluMaskAVX2(grad *float64, mask *bool, n int)
//
// grad = grad AND (0 - mask), widening each bool to a 64-bit 0 or all-ones:
// masked elements become +0, the others keep their bits.
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-24
	MOVQ grad+0(FP), DI
	MOVQ mask+8(FP), SI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
	XORQ BX, BX
	TESTQ CX, CX
	JZ   maskdone

maskloop:
	VPMOVZXBQ (SI)(BX*1), Y1
	VPSUBQ  Y1, Y0, Y1
	VANDPD  (DI)(BX*8), Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  maskloop

maskdone:
	VZEROUPPER
	RET
