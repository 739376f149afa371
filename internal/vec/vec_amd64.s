//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 leaves. Each output element lives in its own lane and takes
// the same adds, in the same order, as the Go fallback in vec.go: the
// accumulator is always the first source operand (VADDPS x, acc, acc
// computes acc = acc + x), and products are a VMULPS followed by a
// VADDPS, never a fused multiply-add. Each leaf runs a 32-element body,
// then at most one 16- and one 8-element step, then a scalar tail
// issuing the same operations one element at a time.
//
// Registers: DI the destination, R8–R11 (or SI) the sources, CX the
// length, AX the element index, DX the bound of the current step.

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

// INIT4F32(off, y): y = (((0+s0)+s1)+s2)+s3 over 8 lanes at byte
// offset off from element AX, stored to dst. Y15 holds +0.
#define INIT4F32(off, y) \
	VADDPS  off(R8)(AX*4), Y15, y; \
	VADDPS  off(R9)(AX*4), y, y; \
	VADDPS  off(R10)(AX*4), y, y; \
	VADDPS  off(R11)(AX*4), y, y; \
	VMOVUPS y, off(DI)(AX*4)

// func init4F32AVX2(dst, s0, s1, s2, s3 []float32)
TEXT ·init4F32AVX2(SB), NOSPLIT, $0-120
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   s0_base+24(FP), R8
	MOVQ   s1_base+48(FP), R9
	MOVQ   s2_base+72(FP), R10
	MOVQ   s3_base+96(FP), R11
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	MOVQ   CX, DX
	SUBQ   $32, DX
	PCALIGN $32

body32:
	CMPQ AX, DX
	JGT  step16
	INIT4F32(0, Y0)
	INIT4F32(32, Y1)
	INIT4F32(64, Y2)
	INIT4F32(96, Y3)
	ADDQ $32, AX
	JMP  body32

step16:
	ADDQ $16, DX
	CMPQ AX, DX
	JGT  step8
	INIT4F32(0, Y0)
	INIT4F32(32, Y1)
	ADDQ $16, AX

step8:
	ADDQ $8, DX
	CMPQ AX, DX
	JGT  tail
	INIT4F32(0, Y0)
	ADDQ $8, AX

tail:
	CMPQ   AX, CX
	JGE    done
	VADDSS (R8)(AX*4), X15, X0
	VADDSS (R9)(AX*4), X0, X0
	VADDSS (R10)(AX*4), X0, X0
	VADDSS (R11)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// ADD4F32(off, y): y = (((dst+s0)+s1)+s2)+s3 over 8 lanes, stored back.
#define ADD4F32(off, y) \
	VMOVUPS off(DI)(AX*4), y; \
	VADDPS  off(R8)(AX*4), y, y; \
	VADDPS  off(R9)(AX*4), y, y; \
	VADDPS  off(R10)(AX*4), y, y; \
	VADDPS  off(R11)(AX*4), y, y; \
	VMOVUPS y, off(DI)(AX*4)

// func add4F32AVX2(dst, s0, s1, s2, s3 []float32)
TEXT ·add4F32AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ s0_base+24(FP), R8
	MOVQ s1_base+48(FP), R9
	MOVQ s2_base+72(FP), R10
	MOVQ s3_base+96(FP), R11
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $32, DX
	PCALIGN $32

body32:
	CMPQ AX, DX
	JGT  step16
	ADD4F32(0, Y0)
	ADD4F32(32, Y1)
	ADD4F32(64, Y2)
	ADD4F32(96, Y3)
	ADDQ $32, AX
	JMP  body32

step16:
	ADDQ $16, DX
	CMPQ AX, DX
	JGT  step8
	ADD4F32(0, Y0)
	ADD4F32(32, Y1)
	ADDQ $16, AX

step8:
	ADDQ $8, DX
	CMPQ AX, DX
	JGT  tail
	ADD4F32(0, Y0)
	ADDQ $8, AX

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSS (DI)(AX*4), X0
	VADDSS (R8)(AX*4), X0, X0
	VADDSS (R9)(AX*4), X0, X0
	VADDSS (R10)(AX*4), X0, X0
	VADDSS (R11)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// ADDF32(off, y): y = dst+src over 8 lanes, stored back.
#define ADDF32(off, y) \
	VMOVUPS off(DI)(AX*4), y; \
	VADDPS  off(SI)(AX*4), y, y; \
	VMOVUPS y, off(DI)(AX*4)

// func addF32AVX2(dst, src []float32)
TEXT ·addF32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $32, DX
	PCALIGN $32

body32:
	CMPQ AX, DX
	JGT  step16
	ADDF32(0, Y0)
	ADDF32(32, Y1)
	ADDF32(64, Y2)
	ADDF32(96, Y3)
	ADDQ $32, AX
	JMP  body32

step16:
	ADDQ $16, DX
	CMPQ AX, DX
	JGT  step8
	ADDF32(0, Y0)
	ADDF32(32, Y1)
	ADDQ $16, AX

step8:
	ADDQ $8, DX
	CMPQ AX, DX
	JGT  tail
	ADDF32(0, Y0)
	ADDQ $8, AX

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// ADD4I8(doff, soff, y): y = dst + s0 + s1 + s2 + s3 over 8 int32
// lanes, each INT8 entry sign-extended; dst at byte offset doff, the
// sources at soff, from element AX.
#define ADD4I8(doff, soff, y) \
	VMOVDQU   doff(DI)(AX*4), y; \
	VPMOVSXBD soff(R8)(AX*1), Y4; \
	VPADDD    Y4, y, y; \
	VPMOVSXBD soff(R9)(AX*1), Y5; \
	VPADDD    Y5, y, y; \
	VPMOVSXBD soff(R10)(AX*1), Y6; \
	VPADDD    Y6, y, y; \
	VPMOVSXBD soff(R11)(AX*1), Y7; \
	VPADDD    Y7, y, y; \
	VMOVDQU   y, doff(DI)(AX*4)

// func add4I8AVX2(dst []int32, s0, s1, s2, s3 []int8)
TEXT ·add4I8AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ s0_base+24(FP), R8
	MOVQ s1_base+48(FP), R9
	MOVQ s2_base+72(FP), R10
	MOVQ s3_base+96(FP), R11
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $32, DX
	PCALIGN $32

body32:
	CMPQ AX, DX
	JGT  step16
	ADD4I8(0, 0, Y0)
	ADD4I8(32, 8, Y1)
	ADD4I8(64, 16, Y2)
	ADD4I8(96, 24, Y3)
	ADDQ $32, AX
	JMP  body32

step16:
	ADDQ $16, DX
	CMPQ AX, DX
	JGT  step8
	ADD4I8(0, 0, Y0)
	ADD4I8(32, 8, Y1)
	ADDQ $16, AX

step8:
	ADDQ $8, DX
	CMPQ AX, DX
	JGT  tail
	ADD4I8(0, 0, Y0)
	ADDQ $8, AX

tail:
	CMPQ    AX, CX
	JGE     done
	MOVL    (DI)(AX*4), BX
	MOVBLSX (R8)(AX*1), R12
	ADDL    R12, BX
	MOVBLSX (R9)(AX*1), R12
	ADDL    R12, BX
	MOVBLSX (R10)(AX*1), R12
	ADDL    R12, BX
	MOVBLSX (R11)(AX*1), R12
	ADDL    R12, BX
	MOVL    BX, (DI)(AX*4)
	INCQ    AX
	JMP     tail

done:
	VZEROUPPER
	RET

// ADDI8(doff, soff, y): y = dst + src over 8 int32 lanes, stored back.
#define ADDI8(doff, soff, y) \
	VMOVDQU   doff(DI)(AX*4), y; \
	VPMOVSXBD soff(SI)(AX*1), Y4; \
	VPADDD    Y4, y, y; \
	VMOVDQU   y, doff(DI)(AX*4)

// func addI8AVX2(dst []int32, src []int8)
TEXT ·addI8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $32, DX
	PCALIGN $32

body32:
	CMPQ AX, DX
	JGT  step16
	ADDI8(0, 0, Y0)
	ADDI8(32, 8, Y1)
	ADDI8(64, 16, Y2)
	ADDI8(96, 24, Y3)
	ADDQ $32, AX
	JMP  body32

step16:
	ADDQ $16, DX
	CMPQ AX, DX
	JGT  step8
	ADDI8(0, 0, Y0)
	ADDI8(32, 8, Y1)
	ADDQ $16, AX

step8:
	ADDQ $8, DX
	CMPQ AX, DX
	JGT  tail
	ADDI8(0, 0, Y0)
	ADDQ $8, AX

tail:
	CMPQ    AX, CX
	JGE     done
	MOVBLSX (SI)(AX*1), R12
	ADDL    R12, (DI)(AX*4)
	INCQ    AX
	JMP     tail

done:
	VZEROUPPER
	RET

// ADDSCALED4(off, y, t): y = (((c + a0·b0) + a1·b1) + a2·b2) + a3·b3
// over 8 lanes, each product rounded by its own VMULPS (t) before the
// VADDPS. Y12–Y15 hold a0–a3 broadcast.
#define ADDSCALED4(off, y, t) \
	VMOVUPS off(DI)(AX*4), y; \
	VMULPS  off(R8)(AX*4), Y12, t; \
	VADDPS  t, y, y; \
	VMULPS  off(R9)(AX*4), Y13, t; \
	VADDPS  t, y, y; \
	VMULPS  off(R10)(AX*4), Y14, t; \
	VADDPS  t, y, y; \
	VMULPS  off(R11)(AX*4), Y15, t; \
	VADDPS  t, y, y; \
	VMOVUPS y, off(DI)(AX*4)

// func addScaled4F32AVX2(c []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
TEXT ·addScaled4F32AVX2(SB), NOSPLIT, $0-136
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	VBROADCASTSS a0+24(FP), Y12
	VBROADCASTSS a1+28(FP), Y13
	VBROADCASTSS a2+32(FP), Y14
	VBROADCASTSS a3+36(FP), Y15
	MOVQ         b0_base+40(FP), R8
	MOVQ         b1_base+64(FP), R9
	MOVQ         b2_base+88(FP), R10
	MOVQ         b3_base+112(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	SUBQ         $32, DX
	PCALIGN      $32

body32:
	CMPQ AX, DX
	JGT  step16
	ADDSCALED4(0, Y0, Y4)
	ADDSCALED4(32, Y1, Y5)
	ADDSCALED4(64, Y2, Y6)
	ADDSCALED4(96, Y3, Y7)
	ADDQ $32, AX
	JMP  body32

step16:
	ADDQ $16, DX
	CMPQ AX, DX
	JGT  step8
	ADDSCALED4(0, Y0, Y4)
	ADDSCALED4(32, Y1, Y5)
	ADDQ $16, AX

step8:
	ADDQ $8, DX
	CMPQ AX, DX
	JGT  tail
	ADDSCALED4(0, Y0, Y4)
	ADDQ $8, AX

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSS (DI)(AX*4), X0
	VMULSS (R8)(AX*4), X12, X4
	VADDSS X4, X0, X0
	VMULSS (R9)(AX*4), X13, X4
	VADDSS X4, X0, X0
	VMULSS (R10)(AX*4), X14, X4
	VADDSS X4, X0, X0
	VMULSS (R11)(AX*4), X15, X4
	VADDSS X4, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET
