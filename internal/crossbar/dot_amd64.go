package crossbar

// The functional-mode vector routines, amd64 only: dot_amd64.s holds the GEMM
// and the quantizer and the two feature-test stubs (golang.org/x/sys/cpu is
// not a dependency of this module). Everything else about the kernel — the
// panels, the envelope, the fallback — is architecture-neutral Go in
// crossbar.go and batch.go, reached through vectorDot and vectorQuantize.

//go:noescape
func gemmAVX2(y *float64, stride int, w, x *int16, rows, cols, n int, colOffset, terms *float64, k *[3]float64)

//go:noescape
func quantizeAVX2(dst *int16, in *float64, n int, xMax float64) (sum int64, top uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	// OSXSAVE and AVX, the OS saving XMM and YMM state, then AVX2 itself.
	const osxsave, avx, xmmYmm, avx2 = 1 << 27, 1 << 28, 0b110, 1 << 5
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return
	}
	if xgetbv()&xmmYmm != xmmYmm {
		return
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx2 != 0 {
		vectorDot, vectorQuantize = gemmAVX2, quantizeAVX2
	}
}
