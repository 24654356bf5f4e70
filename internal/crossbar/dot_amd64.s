#include "textflag.h"

// REDUCE adds up the eight int32 lanes of each of four column accumulators
// a0..a3 (one item's) and stores the four sums as float64s at dst. VPHADDD
// adds adjacent lanes within each 128-bit half: the first two leave every
// lane a pair sum of one column, the third a sum of four lanes of one column
// ([c0 c1 c2 c3] in each half), and the halves are added last — at no point
// do lanes of two columns meet. a0 and a2 are overwritten.
#define REDUCE(a0, a1, a2, a3, x0, x2, dst) \
	VPHADDD      a1, a0, a0; \
	VPHADDD      a3, a2, a2; \
	VPHADDD      a2, a0, a0; \
	VEXTRACTI128 $1, a0, x2; \
	VPADDD       x2, x0, x0; \
	VCVTDQ2PD    x0, a0;     \
	VMOVUPD      a0, dst

// func gemmAVX2(acc *float64, stride int, w, x *int16, rows, cols, n int)
//
// The whole functional-mode product: for c in [0, cols) and i in [0, n),
// acc[i*stride+c] = float64(Σ_r w[c*rows+r]·x[i*rows+r]). rows is a positive
// multiple of 16 and cols of 4 (the caller's panels are zero-padded to both).
// A pass computes a register tile of four columns by two items: per 16-row
// step two input loads and four weight loads feed eight VPMADDWD (sixteen
// signed 16-bit products, adjacent ones added into eight 32-bit lanes) and
// eight VPADDD into the eight accumulators Y0–Y7, and REDUCE ends each item
// with one 32-byte store. Column groups are the outer loop, item pairs the
// inner; an odd last item takes a four-by-one pass. The caller's envelope
// (fuseWeights) keeps every operand in [0, 2^15) and a whole column's sum
// below 2^31, so no pair sum, lane or partial horizontal sum — each a sum
// over a subset of one column's non-negative products — wraps, and the int32
// converts to float64 exactly.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-56
	MOVQ  acc+0(FP), DI
	MOVQ  stride+8(FP), R8
	SHLQ  $3, R8 // bytes between two items' accumulators
	MOVQ  w+16(FP), SI
	MOVQ  rows+32(FP), R9
	SHLQ  $1, R9 // bytes in a column, and between two items' rows
	CMPQ  cols+40(FP), $0
	JLE   done

group:
	// Columns c..c+3 at SI, R11, R12, R13; their accumulators from DI.
	LEAQ (SI)(R9*1), R11
	LEAQ (SI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	MOVQ x+24(FP), R10
	MOVQ DI, DX
	MOVQ n+48(FP), CX
	CMPQ CX, $2
	JLT  last

pair:
	LEAQ  (R10)(R9*1), BX // the pair's second item
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  AX, AX

step2:
	VMOVDQU  (R10)(AX*1), Y8
	VMOVDQU  (BX)(AX*1), Y9
	VMOVDQU  (SI)(AX*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPADDD   Y11, Y0, Y0
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y12, Y4, Y4
	VMOVDQU  (R11)(AX*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPADDD   Y11, Y1, Y1
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y12, Y5, Y5
	VMOVDQU  (R12)(AX*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPADDD   Y11, Y2, Y2
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y12, Y6, Y6
	VMOVDQU  (R13)(AX*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPADDD   Y11, Y3, Y3
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y12, Y7, Y7
	ADDQ     $32, AX
	CMPQ     AX, R9
	JLT      step2

	REDUCE(Y0, Y1, Y2, Y3, X0, X2, (DX))
	REDUCE(Y4, Y5, Y6, Y7, X4, X6, (DX)(R8*1))
	LEAQ (DX)(R8*2), DX
	LEAQ (BX)(R9*1), R10
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  pair

last:
	TESTQ CX, CX
	JZ    next
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

step1:
	VMOVDQU  (R10)(AX*1), Y8
	VPMADDWD (SI)(AX*1), Y8, Y10
	VPADDD   Y10, Y0, Y0
	VPMADDWD (R11)(AX*1), Y8, Y11
	VPADDD   Y11, Y1, Y1
	VPMADDWD (R12)(AX*1), Y8, Y12
	VPADDD   Y12, Y2, Y2
	VPMADDWD (R13)(AX*1), Y8, Y13
	VPADDD   Y13, Y3, Y3
	ADDQ     $32, AX
	CMPQ     AX, R9
	JLT      step1

	REDUCE(Y0, Y1, Y2, Y3, X0, X2, (DX))

next:
	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	SUBQ $4, cols+40(FP)
	JGT  group

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
