package cpuid

// AVX2 reports whether the AVX2 kernels may run: the CPU advertises
// AVX2 and the OS saves and restores the YMM state (OSXSAVE set and
// XCR0 bits 1–2). It is fixed when the process starts.
var AVX2 = detectAVX2()

// cpuidex and xgetbv0 (cpuid_amd64.s) expose the CPUID leaf and the
// OS-enabled extended-state mask.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// detectAVX2 runs the probe behind AVX2.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuidex(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0
}
