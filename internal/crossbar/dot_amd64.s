#include "textflag.h"

// REDUCE adds up the eight int32 lanes of each of four column accumulators
// a0..a3 (one item's), converts the four sums to float64s and finishes them
// into outputs, storing four y at dst. VPHADDD adds adjacent lanes within
// each 128-bit half: the first two leave every lane a pair sum of one column,
// the third a sum of four lanes of one column ([c0 c1 c2 c3] in each half),
// and the halves are added last — at no point do lanes of two columns meet.
// The finish is dequantize's expression, one IEEE operation at a time in its
// order: ×4, ÷(wMax·xMax) (Y13, Y14), −colOffset[c..c+3] (DI is the group's
// y, R14 the distance to colOffset), −xOffset of the item at xoff, +usedRows
// (Y15), ×scale of the item at scale. a0..a3 are overwritten.
#define REDUCE(a0, a1, a2, a3, x0, x2, xoff, scale, dst) \
	VPHADDD      a1, a0, a0;          \
	VPHADDD      a3, a2, a2;          \
	VPHADDD      a2, a0, a0;          \
	VEXTRACTI128 $1, a0, x2;          \
	VPADDD       x2, x0, x0;          \
	VCVTDQ2PD    x0, a0;              \
	VMULPD       Y13, a0, a0;         \
	VDIVPD       Y14, a0, a0;         \
	VSUBPD       (DI)(R14*1), a0, a0; \
	VBROADCASTSD xoff, a1;            \
	VSUBPD       a1, a0, a0;          \
	VADDPD       Y15, a0, a0;         \
	VBROADCASTSD scale, a1;           \
	VMULPD       a1, a0, a0;          \
	VMOVUPD      a0, dst

// func gemmAVX2(y *float64, stride int, w, x *int16, rows, cols, n int, colOffset, terms *float64, k *[3]float64)
//
// The whole functional-mode read: for c in [0, cols) and i in [0, n),
// y[i*stride+c] is dequantize's output for the integer Σ_r w[c*rows+r]·x[i*rows+r],
// with colOffset[c], the item's terms[2i] (xOffset) and terms[2i+1] (scale)
// and k = {4, wMax·xMax, usedRows}. rows is a positive multiple of 16 and
// cols of 4 (the caller's panels are zero-padded to both, and colOffset is
// cols long). A pass computes a register tile of four columns by two items:
// per 16-row step two input loads and four weight loads feed eight VPMADDWD
// (sixteen signed 16-bit products, adjacent ones added into eight 32-bit
// lanes) and eight VPADDD into the eight accumulators Y0–Y7, and REDUCE ends
// each item with one 32-byte store. Column groups are the outer loop, item
// pairs the inner; an odd last item takes a four-by-one pass. The caller's
// envelope (fuseWeights) keeps every operand in [0, 2^15) and a whole
// column's sum below 2^31, so no pair sum, lane or partial horizontal sum —
// each a sum over a subset of one column's non-negative products — wraps, and
// the int32 converts to float64 exactly.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-80
	MOVQ         y+0(FP), DI
	MOVQ         stride+8(FP), R8
	SHLQ         $3, R8                 // bytes between two items' outputs
	MOVQ         w+16(FP), SI
	MOVQ         rows+32(FP), R9
	SHLQ         $1, R9                 // bytes in a column, and between two items' rows
	MOVQ         colOffset+56(FP), R14
	SUBQ         DI, R14
	MOVQ         k+72(FP), AX
	VBROADCASTSD (AX), Y13
	VBROADCASTSD 8(AX), Y14
	VBROADCASTSD 16(AX), Y15
	MOVQ         n+48(FP), AX
	DECQ         AX
	SHLQ         $4, AX
	ADDQ         terms+64(FP), AX
	MOVQ         AX, n+48(FP)           // from here on, the last item's terms
	CMPQ         cols+40(FP), $0
	JLE          done

group:
	// Columns c..c+3 at SI, R11, R12, R13; their outputs from DI; the
	// current item's terms at CX.
	LEAQ (SI)(R9*1), R11
	LEAQ (SI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	MOVQ x+24(FP), R10
	MOVQ DI, DX
	MOVQ terms+64(FP), CX
	CMPQ CX, n+48(FP)
	JAE  last

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

	REDUCE(Y0, Y1, Y2, Y3, X0, X2, (CX), 8(CX), (DX))
	REDUCE(Y4, Y5, Y6, Y7, X4, X6, 16(CX), 24(CX), (DX)(R8*1))
	LEAQ (DX)(R8*2), DX
	LEAQ (BX)(R9*1), R10
	ADDQ $32, CX
	CMPQ CX, n+48(FP)
	JB   pair

last:
	CMPQ  CX, n+48(FP)
	JNE   next
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

step1:
	VMOVDQU  (R10)(AX*1), Y8
	VPMADDWD (SI)(AX*1), Y8, Y9
	VPADDD   Y9, Y0, Y0
	VPMADDWD (R11)(AX*1), Y8, Y10
	VPADDD   Y10, Y1, Y1
	VPMADDWD (R12)(AX*1), Y8, Y11
	VPADDD   Y11, Y2, Y2
	VPMADDWD (R13)(AX*1), Y8, Y12
	VPADDD   Y12, Y3, Y3
	ADDQ     $32, AX
	CMPQ     AX, R9
	JLT      step1

	REDUCE(Y0, Y1, Y2, Y3, X0, X2, (CX), 8(CX), (DX))

next:
	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	SUBQ $4, cols+40(FP)
	JGT  group

done:
	VZEROUPPER
	RET

// tailMask is three all-ones quadwords and four zero ones: the four read
// from tailMask+8·(3−r) are all ones in lanes j < r and zero elsewhere.
DATA  tailMask<>+0(SB)/8, $-1
DATA  tailMask<>+8(SB)/8, $-1
DATA  tailMask<>+16(SB)/8, $-1
DATA  tailMask<>+24(SB)/8, $0
DATA  tailMask<>+32(SB)/8, $0
DATA  tailMask<>+40(SB)/8, $0
DATA  tailMask<>+48(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $56

// QUANT is quantizeRow's expression on four lanes, one IEEE operation at a
// time in its order: v/scale (Y13), +1 (Y12), ×½ (Y11), ×xMax (Y10), doubled,
// truncated to int32, +1 (X8 is −1), >>1. Four float64s in y, four int32s
// out in x.
#define QUANT(y, x) \
	VDIVPD      Y13, y, y; \
	VADDPD      Y12, y, y; \
	VMULPD      Y11, y, y; \
	VMULPD      Y10, y, y; \
	VADDPD      y, y, y;   \
	VCVTTPD2DQY y, x;      \
	VPSUBD      X8, x, x;  \
	VPSRAD      $1, x, x

// MAXQ sets each 64-bit lane of m to the larger of it and the lane of v (t is
// scratch). The scan's lanes are sign-cleared bits, below 2^63, so the signed
// compare orders them as unsigned integers and so as magnitudes.
#define MAXQ(v, m, t) \
	VPCMPGTQ  m, v, t; \
	VBLENDVPD t, v, m, m

// func quantizeAVX2(dst *int16, in *float64, n int, xMax float64) (sum int64, top uint64)
//
// One item of quantize on the vector panel, n ≥ 1. top is the unsigned
// maximum of the sign-cleared bits of in[0:n] — the item's max |v|, and at or
// above infBits when any element is a NaN or ±Inf, in which case the routine
// returns at once with sum 0 and writes nothing. Otherwise it quantizes with
// scale max |v| (1 for an all-zero item) into dst[0:n] as int16 and returns
// the sum. Whole groups of four are plain loads; the last partial group is
// read under VMASKMOVPD (pad lanes read as +0, never touching memory past
// in[n−1]), its four results are stored whole — the pad lanes land in dst's
// row pad, which the caller clears after — and its pad lanes are masked out
// of the sum. q ≤ xMax < 2^15, so VPACKSSDW never saturates, 2t < 2^16 keeps
// the truncating convert in range, and the sum is kept in int64 lanes.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    in+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    CX, DX
	ANDQ    $3, DX         // lanes in the partial group
	SUBQ    DX, CX         // elements in whole groups
	MOVQ    $3, AX
	SUBQ    DX, AX
	LEAQ    tailMask<>(SB), BX
	VMOVDQU (BX)(AX*8), Y14
	VPXOR   Y9, Y9, Y9     // the sum

	// The scan: Y0 and Y3 are two running maxima of the sign-cleared bits
	// (two chains, eight elements a step), merged at the end.
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	VPXOR        Y0, Y0, Y0
	VPXOR        Y3, Y3, Y3
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX       // elements in whole pairs of groups
	JZ           scan4

scan8:
	VPAND (SI)(AX*8), Y15, Y1
	VPAND 32(SI)(AX*8), Y15, Y4
	MAXQ(Y1, Y0, Y2)
	MAXQ(Y4, Y3, Y5)
	ADDQ  $8, AX
	CMPQ  AX, BX
	JLT   scan8

scan4:
	CMPQ  AX, CX
	JEQ   scantail
	VPAND (SI)(AX*8), Y15, Y4
	MAXQ(Y4, Y3, Y5)
	ADDQ  $4, AX

scantail:
	TESTQ      DX, DX
	JZ         scanned
	VMASKMOVPD (SI)(AX*8), Y14, Y1
	VPAND      Y15, Y1, Y1
	MAXQ(Y1, Y0, Y2)

scanned:
	MAXQ(Y3, Y0, Y2)
	VEXTRACTI128 $1, Y0, X1
	MAXQ(X1, X0, X2)
	VPSHUFD      $0x4E, X0, X1
	MAXQ(X1, X0, X2)
	VMOVQ        X0, BX
	MOVQ         BX, top+40(FP)
	MOVQ         $0x7FF0000000000000, AX // infBits
	CMPQ         BX, AX
	JAE          sum

	MOVQ         $0x3FF0000000000000, AX // 1.0
	TESTQ        BX, BX
	CMOVQEQ      AX, BX
	VMOVQ        BX, X13
	VBROADCASTSD X13, Y13
	VMOVQ        AX, X12
	VBROADCASTSD X12, Y12
	MOVQ         $0x3FE0000000000000, AX // 0.5
	VMOVQ        AX, X11
	VBROADCASTSD X11, Y11
	VBROADCASTSD xMax+24(FP), Y10
	VPCMPEQD     X8, X8, X8
	XORQ         AX, AX
	CMPQ         CX, $0
	JEQ          tail

quant:
	VMOVUPD   (SI)(AX*8), Y0
	QUANT(Y0, X0)
	VPACKSSDW X0, X0, X1
	VMOVQ     X1, (DI)(AX*2)
	VPMOVZXDQ X0, Y1
	VPADDQ    Y1, Y9, Y9
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       quant

tail:
	TESTQ      DX, DX
	JZ         sum
	VMASKMOVPD (SI)(AX*8), Y14, Y0
	QUANT(Y0, X0)
	VPACKSSDW  X0, X0, X1
	VMOVQ      X1, (DI)(AX*2)
	VPMOVZXDQ  X0, Y1
	VPAND      Y14, Y1, Y1
	VPADDQ     Y1, Y9, Y9

sum:
	VEXTRACTI128 $1, Y9, X1
	VPADDQ       X1, X9, X9
	VPSHUFD      $0x4E, X9, X1
	VPADDQ       X1, X9, X9
	VMOVQ        X9, sum+32(FP)
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
