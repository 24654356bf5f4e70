#include "textflag.h"

// func dotAVX2(acc *float64, stride int, w, x *int16, rows, n int)
//
// One weight column against the input rows of n items: for i in [0, n),
// acc[i*stride] = float64(Σ_r w[r]·x[i*rows+r]). rows is a positive multiple
// of 16. VPMADDWD multiplies sixteen signed 16-bit pairs and adds adjacent
// products into eight 32-bit lanes; the caller's envelope (fuseWeights)
// keeps every operand in [0, 2^15) and the whole column's sum below 2^31, so
// no pair sum, lane or partial horizontal sum wraps, and the int32 converts
// to float64 exactly.
TEXT ·dotAVX2(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8 // bytes between an item's accumulators
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ rows+32(FP), R9
	SHLQ $1, R9 // bytes in a column, and between two items' rows
	MOVQ n+40(FP), CX
	TESTQ CX, CX
	JLE  done

item:
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX

step:
	VMOVDQU  (DX)(AX*1), Y1
	VPMADDWD (SI)(AX*1), Y1, Y1
	VPADDD   Y1, Y0, Y0
	ADDQ     $32, AX
	CMPQ     AX, R9
	JLT      step

	// Eight lanes to one: high half onto low, then 64- and 32-bit swaps.
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VCVTDQ2PD    X0, X0
	VMOVSD       X0, (DI)
	ADDQ         R9, DX
	ADDQ         R8, DI
	DECQ         CX
	JNZ          item

done:
	VZEROUPPER
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

// func xgetbv() (eax uint32)
//
// The low half of XCR0, which is where the XMM and YMM state bits are.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
