#include "textflag.h"

// func normFastAVX512(dst *float64, n int, ctr, step uint64) (slow uint64)
//
// normStrideGo's fast path over eight draws a step, for 1 ≤ n ≤ 64. Lane k
// of Z0 holds the counter of the group's draw k; a step runs mix (Z3, Z4 its
// multipliers) on all eight, splits each word w into j = w >> 11
// (arithmetic) and l = w & 127, gathers zigK[l] and zigW[l], and compares
// |j| < zigK[l] unsigned into K4 — |j| ≤ 2^52, so VPABSQ and the unsigned
// compare are Go's uint64(max(j, -j)) < zigK[l]. The value is
// float64(j)·zigW[l]: the conversion is exact (|j| < 2^53) and VMULPD is
// MULSD per lane. K1 holds the step's lanes (all eight, then the n mod 8 of
// a last partial group): the store is masked by it, and byte g of slow is
// the lanes of group g in K1 but not K4 — the draws the caller finishes.
//
// A call's latency matters as much as its throughput (the kernel's fills
// are 32 draws, and the caller waits on slow), so the lane counters are
// three masked adds rather than a VPMULLQ, the gathers issue as soon as l
// is known, and slow is built in a register (eight byte stores read back
// as one word would stall the load).
TEXT ·normFastAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R12
	MOVQ ctr+16(FP), AX
	MOVQ step+24(FP), BX
	LEAQ ·zigK(SB), R8
	LEAQ ·zigW(SB), R9

	// Z0 = ctr + k·step in lane k: step into the odd lanes, 2·step into
	// lanes 2, 3, 6, 7 and 4·step into lanes 4–7. Z1 = 8·step.
	VPBROADCASTQ AX, Z0
	VPBROADCASTQ BX, Z1
	MOVL         $0xaa, AX
	KMOVB        AX, K1
	VPADDQ       Z1, Z0, K1, Z0
	SHLQ         $1, BX
	VPBROADCASTQ BX, Z1
	MOVL         $0xcc, AX
	KMOVB        AX, K1
	VPADDQ       Z1, Z0, K1, Z0
	SHLQ         $1, BX
	VPBROADCASTQ BX, Z1
	MOVL         $0xf0, AX
	KMOVB        AX, K1
	VPADDQ       Z1, Z0, K1, Z0
	SHLQ         $1, BX
	VPBROADCASTQ BX, Z1
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z3
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z4
	MOVQ         $127, AX
	VPBROADCASTQ AX, Z5

	// R15 = the last group's lanes, (1 << (n mod 8)) − 1, or all eight.
	MOVQ  R12, CX
	ANDL  $7, CX
	MOVL  $1, R15
	SHLL  CX, R15
	DECL  R15
	MOVL  $0xff, AX
	TESTL CX, CX
	CMOVLEQ AX, R15
	XORL  CX, CX    // 8·g, where group g's byte of slow goes
	XORL  R11, R11  // slow

loop:
	MOVL    $0xff, AX
	CMPQ    R12, $8
	CMOVLLT R15, AX
	KMOVB   AX, K1
	KMOVB   K1, K2
	KMOVB   K1, K3

	// w = mix(ctr)
	VPSRLQ  $30, Z0, Z6
	VPXORQ  Z0, Z6, Z6
	VPADDQ  Z1, Z0, Z0
	VPMULLQ Z3, Z6, Z6
	VPSRLQ  $27, Z6, Z7
	VPXORQ  Z7, Z6, Z6
	VPMULLQ Z4, Z6, Z6
	VPSRLQ  $31, Z6, Z7
	VPXORQ  Z7, Z6, Z6

	VPANDQ     Z5, Z6, Z8
	VPGATHERQQ (R8)(Z8*8), K2, Z10
	VGATHERQPD (R9)(Z8*8), K3, Z11
	VPSRAQ     $11, Z6, Z7
	VPABSQ     Z7, Z9
	VPCMPUQ    $1, Z10, Z9, K1, K4
	VCVTQQ2PD  Z7, Z12
	VMULPD     Z11, Z12, Z12
	VMOVUPD    Z12, K1, (DI)
	KANDNB     K1, K4, K5
	KMOVB      K5, AX
	SHLQ       CX, AX
	ORQ        AX, R11

	ADDQ $64, DI
	ADDL $8, CX
	SUBQ $8, R12
	JG   loop
	MOVQ R11, slow+32(FP)
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
// The low half of XCR0, which is where the XMM, YMM, opmask and ZMM state
// bits are.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
