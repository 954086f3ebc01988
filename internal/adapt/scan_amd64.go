package adapt

// frameSumsAVX2 is the suppress pass's frame kernel (scan_amd64.s): for one
// frame of the one-word route it writes the 16 raw channel integrals of src to
// raw and returns the dark mask — bit c set when raw[c] < lim[c], the sign of
// the 32-bit raw−lim the portable loop computes — and the frame's sample
// total. The array-pointer types are the bounds proof: assembly checks
// nothing, so the caller's conversions are what keep it inside the slices.
//
//go:noescape
func frameSumsAVX2(src *[frameSampleBytes]byte, lim, raw *[ChannelsPerASIC]uint32) (dark, total uint32)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the kernel may run: the CPU implements AVX2
// (CPUID leaf 7) and the OS saves the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling both SSE and AVX state). The second half
// matters: a hypervisor or kernel that masks AVX state leaves the CPUID
// feature bit set but faults, or worse corrupts, on the first YMM write.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		ymmXCR0 = 0b110   // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXCR0 != ymmXCR0 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
