#include "textflag.h"

// func containMaskAVX2(planes []float64, stride, start, n int, p []float64) uint64
//
// containMaskGo in AVX2, with the same contract and result. Per plane, the
// span [f, l) of boxes still in the mask is tested four boxes a step and
// then box by box; bit j of the plane's mask is set iff lo[j] < x and
// x <= hi[j]. The comparisons are ordered, so a NaN on either side clears
// the bit, as Go's < and <= do.
//
// SI: box start of the current Lo plane; DI: the same box of its Hi plane
// R11: the stride in bytes; R9, R10: the rest of p
// AX: the mask; DX: the current plane's mask
// R12, R13: the span [f, l) relative to start; CX: the box index, also the
// shift count; R8: the end of the four-box steps
TEXT ·containMaskAVX2(SB), NOSPLIT, $0-80
	MOVQ planes_base+0(FP), SI
	MOVQ stride+24(FP), R11
	SHLQ $3, R11
	MOVQ start+32(FP), R12
	LEAQ (SI)(R12*8), SI
	MOVQ n+40(FP), R13
	MOVQ $64, CX
	SUBQ R13, CX
	MOVQ $-1, AX
	SHRQ CX, AX // the n low bits
	MOVQ p_base+48(FP), R9
	MOVQ p_len+56(FP), R10
	XORQ R12, R12

plane:
	TESTQ        R10, R10
	JZ           done
	VBROADCASTSD (R9), Y0
	LEAQ         (SI)(R11*1), DI
	MOVQ         R12, CX
	XORQ         DX, DX
	MOVQ         R13, R8
	SUBQ         R12, R8
	ANDQ         $-4, R8
	ADDQ         R12, R8
	CMPQ         CX, R8
	JAE          tail

quad:
	VCMPPD    $0x1e, (SI)(CX*8), Y0, Y1 // x > lo[j:j+4], GT_OQ
	VCMPPD    $0x12, (DI)(CX*8), Y0, Y2 // x <= hi[j:j+4], LE_OQ
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, BX
	SHLQ      CX, BX
	ORQ       BX, DX
	ADDQ      $4, CX
	CMPQ      CX, R8
	JB        quad

tail:
	CMPQ     CX, R13
	JAE      next
	VUCOMISD (SI)(CX*8), X0 // x against lo[j]: above iff x > lo[j]
	SETHI    BX
	VMOVSD   (DI)(CX*8), X1
	VUCOMISD X0, X1         // hi[j] against x: above or equal iff x <= hi[j]
	SETCC    R8
	ANDL     R8, BX
	MOVBQZX  BX, BX
	SHLQ     CX, BX
	ORQ      BX, DX
	INCQ     CX
	JMP      tail

next:
	ANDQ DX, AX
	JZ   done
	LEAQ (SI)(R11*2), SI // the next dimension's Lo plane
	ADDQ $8, R9
	DECQ R10
	BSFQ AX, R12
	BSRQ AX, R13
	INCQ R13
	JMP  plane

done:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
