//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for kernels_amd64.go. Every kernel works across output
// elements only: an element takes one rounded multiply and then one rounded
// add per term, in the Go loop's order, so its bits are those of the Go
// loop. No instruction here fuses a multiply into an add (no FMA), and no
// sum is reassociated.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

// matMulRowAVX2 registers: BX the current column block of o, CX the
// columns left, SI x, R8 ks, R9 nk, R11 b's row stride in bytes, R12 the
// current column block of b's row 0, R13 the ks cursor, DX the k count.
// A block of r accumulators (r*4 columns) is loaded from o, takes every k's
// term, and is stored back.

// KSTEP reads the next k at R13, broadcasts x[k] into Y12 and leaves the
// address of row k's current column block in AX.
#define KSTEP \
	MOVQ         (R13), AX;    \
	VBROADCASTSD (SI)(AX*8), Y12; \
	IMULQ        R11, AX;      \
	ADDQ         R12, AX;      \
	ADDQ         $8, R13

// TERM adds x[k]*b[k][j..j+3], for the four columns at byte offset off of
// the block, into acc: a multiply, then an add.
#define TERM(off, acc) \
	VMULPD off(AX), Y12, Y13; \
	VADDPD Y13, acc, acc

// func matMulRowAVX2(o *float64, n int, x *float64, ks *int, nk int, b *float64, ldb int)
TEXT ·matMulRowAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), BX
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), SI
	MOVQ ks+24(FP), R8
	MOVQ nk+32(FP), R9
	MOVQ b+40(FP), R12
	MOVQ ldb+48(FP), R11
	SHLQ $3, R11

block12:
	CMPQ    CX, $48
	JLT     block8
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	VMOVUPD 256(BX), Y8
	VMOVUPD 288(BX), Y9
	VMOVUPD 320(BX), Y10
	VMOVUPD 352(BX), Y11
	MOVQ    R8, R13
	MOVQ    R9, DX

loop12:
	KSTEP
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	TERM(128, Y4)
	TERM(160, Y5)
	TERM(192, Y6)
	TERM(224, Y7)
	TERM(256, Y8)
	TERM(288, Y9)
	TERM(320, Y10)
	TERM(352, Y11)
	DECQ    DX
	JNZ     loop12
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	VMOVUPD Y8, 256(BX)
	VMOVUPD Y9, 288(BX)
	VMOVUPD Y10, 320(BX)
	VMOVUPD Y11, 352(BX)
	ADDQ    $384, BX
	ADDQ    $384, R12
	SUBQ    $48, CX
	JMP     block12

	// Fewer than 48 columns are left: blocks of 8, 4, 2 and 1 registers
	// take them, each at most once.
block8:
	CMPQ    CX, $32
	JLT     block4
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	MOVQ    R8, R13
	MOVQ    R9, DX

loop8:
	KSTEP
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	TERM(128, Y4)
	TERM(160, Y5)
	TERM(192, Y6)
	TERM(224, Y7)
	DECQ    DX
	JNZ     loop8
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	ADDQ    $256, BX
	ADDQ    $256, R12
	SUBQ    $32, CX

block4:
	CMPQ    CX, $16
	JLT     block2
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	MOVQ    R8, R13
	MOVQ    R9, DX

loop4:
	KSTEP
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	DECQ    DX
	JNZ     loop4
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ    $128, BX
	ADDQ    $128, R12
	SUBQ    $16, CX

block2:
	CMPQ    CX, $8
	JLT     block1
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	MOVQ    R8, R13
	MOVQ    R9, DX

loop2:
	KSTEP
	TERM(0, Y0)
	TERM(32, Y1)
	DECQ    DX
	JNZ     loop2
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	ADDQ    $64, BX
	ADDQ    $64, R12
	SUBQ    $8, CX

block1:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD 0(BX), Y0
	MOVQ    R8, R13
	MOVQ    R9, DX

loop1:
	KSTEP
	TERM(0, Y0)
	DECQ    DX
	JNZ     loop1
	VMOVUPD Y0, 0(BX)
	ADDQ    $32, BX
	ADDQ    $32, R12
	SUBQ    $4, CX

	// The last n%4 columns, one at a time, each over every k.
tail:
	TESTQ CX, CX
	JEQ   done
	VMOVSD (BX), X0
	MOVQ  R8, R13
	MOVQ  R9, DX

tailk:
	MOVQ   (R13), AX
	VMOVSD (SI)(AX*8), X12
	IMULQ  R11, AX
	VMULSD (R12)(AX*1), X12, X13
	VADDSD X13, X0, X0
	ADDQ   $8, R13
	DECQ   DX
	JNZ    tailk
	VMOVSD X0, (BX)
	ADDQ   $8, BX
	ADDQ   $8, R12
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func adamAVX2(val, m, v, grad *float64, n int, c *adamCoeffs)
//
// Y6..Y13 hold b1, 1-b1, b2, 1-b2, bc1, bc2, lr and eps; BX is the byte
// offset of the current elements. The order of operations is
// adamUpdateGeneric's.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ         val+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         grad+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y6
	VBROADCASTSD 8(AX), Y7
	VBROADCASTSD 16(AX), Y8
	VBROADCASTSD 24(AX), Y9
	VBROADCASTSD 32(AX), Y10
	VBROADCASTSD 40(AX), Y11
	VBROADCASTSD 48(AX), Y12
	VBROADCASTSD 56(AX), Y13
	XORQ         BX, BX

a4:
	CMPQ    CX, $4
	JLT     a1
	VMOVUPD (R8)(BX*1), Y0        // g
	VMULPD  (SI)(BX*1), Y6, Y1    // b1*m
	VMULPD  Y0, Y7, Y2            // (1-b1)*g
	VADDPD  Y2, Y1, Y1            // m
	VMOVUPD Y1, (SI)(BX*1)
	VMULPD  Y0, Y9, Y2            // (1-b2)*g
	VMULPD  Y0, Y2, Y2            // ((1-b2)*g)*g
	VMULPD  (DX)(BX*1), Y8, Y3    // b2*v
	VADDPD  Y2, Y3, Y3            // v
	VMOVUPD Y3, (DX)(BX*1)
	VDIVPD  Y10, Y1, Y1           // m/bc1
	VDIVPD  Y11, Y3, Y3           // v/bc2
	VSQRTPD Y3, Y3
	VADDPD  Y13, Y3, Y3           // sqrt(v/bc2)+eps
	VMULPD  Y1, Y12, Y1           // lr*(m/bc1)
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(BX*1), Y4
	VSUBPD  Y1, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     a4

a1:
	TESTQ   CX, CX
	JEQ     a0
	VMOVSD  (R8)(BX*1), X0
	VMULSD  (SI)(BX*1), X6, X1
	VMULSD  X0, X7, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (SI)(BX*1)
	VMULSD  X0, X9, X2
	VMULSD  X0, X2, X2
	VMULSD  (DX)(BX*1), X8, X3
	VADDSD  X2, X3, X3
	VMOVSD  X3, (DX)(BX*1)
	VDIVSD  X10, X1, X1
	VDIVSD  X11, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X13, X3, X3
	VMULSD  X1, X12, X1
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(BX*1), X4
	VSUBSD  X1, X4, X4
	VMOVSD  X4, (DI)(BX*1)
	ADDQ    $8, BX
	DECQ    CX
	JMP     a1

a0:
	VZEROUPPER
	RET
