package adapt

// scanFramesAVX2 is the suppress pass's window kernel (scan_amd64.s) for the
// one-word route. It walks whole frames at the front of win for as long as
// win holds another one, lims holds its sixteen limits and out has sixteen
// free slots after n — those loop conditions are its only bounds, assembly
// checks nothing else. Per frame it compares header bytes 0–7, loaded
// little-endian, with want (which grows by 1<<16, the next ASIC index, per
// frame), checks the sample count is 4, sums the channels, folds and checks
// the checksum, and only then appends the frame's lit channels to out[n:] as
// fl | c<<32 | (raw−limit), fl growing by 16<<32 per frame. It returns the
// frames it took and the advanced n; the frame it stopped at is untouched.
//
//go:noescape
func scanFramesAVX2(win []byte, lims []uint32, want, fl uint64, out []Lit, n int) (frames, nOut int)

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
