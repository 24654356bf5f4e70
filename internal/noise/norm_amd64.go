package noise

import "math/bits"

// The vector fill, amd64 only: norm_amd64.s holds the AVX-512 routine and
// the two feature-test stubs (golang.org/x/sys/cpu is not a dependency of
// this module). The slow path stays Go, in normSlow.

// normFastAVX512 takes the fast path of the n ≤ 64 draws of counters
// ctr + k·step, eight a step: it stores dst[k] for every k < n and returns
// the draws that missed their layer's fast region as bit k of slow, whose
// dst[k] the caller overwrites with normSlow.
//
//go:noescape
func normFastAVX512(dst *float64, n int, ctr, step uint64) (slow uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	// OSXSAVE, the OS saving XMM, YMM, opmask and both halves of the ZMM
	// state, then AVX512F and AVX512DQ (VPMULLQ, VCVTQQ2PD).
	const osxsave, xcr0, avx512f, avx512dq = 1 << 27, 0b1110_0110, 1 << 16, 1 << 17
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return
	}
	if xgetbv()&xcr0 != xcr0 {
		return
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(avx512f|avx512dq) == avx512f|avx512dq {
		normStrideVec = normStrideAVX512
	}
}

// normStrideAVX512 is normStrideVec on an AVX-512 host: the routine fills
// 64 draws a call and Go finishes the ones it flags, from their own words.
func normStrideAVX512(dst []float64, ctr, step uint64) {
	for len(dst) > 0 {
		n := min(len(dst), 64)
		for slow := normFastAVX512(&dst[0], n, ctr, step); slow != 0; slow &= slow - 1 {
			k := bits.TrailingZeros64(slow)
			dst[k] = normSlow(mix(ctr + uint64(k)*step))
		}
		dst, ctr = dst[n:], ctr+uint64(n)*step
	}
}
