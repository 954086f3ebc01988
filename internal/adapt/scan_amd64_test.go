//go:build amd64 && unix

package adapt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

// beforeGuard returns n writable bytes whose last byte is the last byte of a
// mapped page, the next page being inaccessible: reading or writing one byte
// past the slice faults instead of quietly succeeding.
func beforeGuard(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	m, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	if err := syscall.Mprotect(m[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return m[size-n : size : size]
}

// guarded copies s (pointer-free elements, at least one) into memory that
// ends at a guard page.
func guarded[T any](t *testing.T, s []T) []T {
	t.Helper()
	b := beforeGuard(t, len(s)*int(unsafe.Sizeof(s[0])))
	g := unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(s))
	copy(g, s)
	return g
}

// oneWordFrame is the wire size of a frame of four samples per channel.
const oneWordFrame = headerBytes + 2*ChannelsPerASIC*4 + 2

type sampleBlock = [ChannelsPerASIC][4]uint16

// TestFrameKernelMatchesPortable pits the AVX2 window kernel against lit
// lists the test computes from the samples and limits itself, and against the
// portable loops. Every window, the limit table and the lit output end at a
// guard page (assembly has no bounds checks: a one-byte over-read or
// over-write faults). Each window runs twice: through the kernel alone, which
// must take exactly the frames it may, append exactly their lit entries and
// leave the rest of out untouched; and through scan under both kernels, whose
// consumed bytes, ASIC position and lit lists must be equal and right.
//
// The blocks are the inputs that break SIMD rewrites of this sum: unsigned
// samples at and above 0x8000 (a signed multiply-add reads them negative),
// the all-0xFFFF frame (the largest integral and total), the compare at its
// boundary (raw == lim is lit, raw == lim−1 dark), limits at −2^30 (always
// lit, the largest excess) and clamped to 2^24 (never lit), and random
// blocks. The stop cases are a window one byte short of a frame; a wrong
// event id, ASIC index or sample-count byte at frame k; a checksum bit flip
// at frame k (frames before k keep their lits, frame k adds none); and the
// limit table or the output running out first. Windows start at ASIC 0, start
// at 250 (the index carries into its high byte on the way) and end at ASIC
// 65535, the last one the wire addresses.
func TestFrameKernelMatchesPortable(t *testing.T) {
	withKernel(t, true) // skips without AVX2; restores the selector when the test ends
	rng := detector.NewRNG(14)
	const event = 0xC0FFEE

	// frames marshals one frame per block, ASICs start, start+1, …, and
	// returns each frame's lit entries; limits holds the window's channels.
	frames := func(start int, blocks []sampleBlock, limits []int64) (wire [][]byte, lits [][]Lit) {
		t.Helper()
		for f := range blocks {
			a := start + f
			pkt := Packet{Header: Header{Magic: PacketMagic, ASIC: uint8(a), Flags: uint8(a >> 8),
				Event: event, Timestamp: rng.Uint64(), SamplesPerChannel: 4}}
			var want []Lit
			for c, samples := range blocks[f] {
				pkt.Samples[c] = make([]int32, 4)
				var raw int64
				for k, v := range samples {
					pkt.Samples[c][k] = int32(v)
					raw += int64(v)
				}
				if lim := limits[f*ChannelsPerASIC+c]; raw >= lim {
					want = append(want, mkLit(a*ChannelsPerASIC+c, raw-lim))
				}
			}
			frame, err := pkt.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			wire, lits = append(wire, frame), append(lits, want)
		}
		return wire, lits
	}

	// suppressor is an asics-ASIC limit table, guarded, whose channels from
	// ASIC start on take limits and the rest 0.
	suppressor := func(asics, start int, limits []int64) *Suppressor {
		t.Helper()
		all := make([]int64, asics*ChannelsPerASIC)
		copy(all[start*ChannelsPerASIC:], limits)
		sup, err := newSuppressor(asics, 4, 0, all)
		if err != nil {
			t.Fatal(err)
		}
		sup.lim32 = guarded(t, sup.lim32)
		return sup
	}

	// check runs one window starting at ASIC start. scan must take stop
	// frames and the kernel alone kernelStop; both emit exactly the lit
	// entries of the frames they took.
	check := func(name string, sup *Suppressor, start int, win []byte, outLen int, lits [][]Lit, stop, kernelStop int) {
		t.Helper()
		win = guarded(t, win)
		out := guarded(t, make([]Lit, outLen))
		const sentinel = Lit(0xDEADBEEFDEADBEEF)
		for k := range out {
			out[k] = sentinel
		}
		var lims []uint32
		if start < sup.asics {
			lims = sup.lim32[start*ChannelsPerASIC:]
		}
		want := uint64(0xFAA1) | uint64(start)<<16 | uint64(bits.ReverseBytes32(event))<<32
		k, n := scanFramesAVX2(win, lims, want, uint64(start*ChannelsPerASIC)<<32, out, 0)
		if wantLits := slices.Concat(lits[:kernelStop]...); k != kernelStop || !slices.Equal(out[:n], wantLits) {
			t.Fatalf("%s: kernel took %d frames (want %d)\n lit %x\nwant %x", name, k, kernelStop, out[:n], wantLits)
		}
		for _, l := range out[n:] {
			if l != sentinel {
				t.Fatalf("%s: kernel wrote past its %d lit entries", name, n)
			}
		}
		wantLits := slices.Concat(lits[:stop]...)
		for _, avx2 := range []bool{false, true} {
			useAVX2 = avx2
			off, i, n := sup.scan(win, start, event, out, 0)
			if off != stop*oneWordFrame || i != start+stop || !slices.Equal(out[:n], wantLits) {
				t.Fatalf("%s: %s scan took %d bytes to ASIC %d (want %d to %d)\n lit %x\nwant %x",
					name, ScanKernel(), off, i, stop*oneWordFrame, start+stop, out[:n], wantLits)
			}
		}
	}

	// whole runs a window of valid frames from ASIC 0: everything is taken.
	whole := func(name string, blocks []sampleBlock, limits []int64) {
		t.Helper()
		wire, lits := frames(0, blocks, limits)
		sup := suppressor(len(blocks), 0, limits)
		check(name, sup, 0, slices.Concat(wire...), len(limits)+1, lits, len(blocks), len(blocks))
	}

	fill := func(blocks []sampleBlock, v func() uint16) {
		for f := range blocks {
			for c := range blocks[f] {
				for k := range blocks[f][c] {
					blocks[f][c][k] = v()
				}
			}
		}
	}
	// boundary sets every limit one step either side of its channel's raw
	// integral: even channels raw == lim (lit), odd raw == lim−1 (dark).
	boundary := func(blocks []sampleBlock) []int64 {
		limits := make([]int64, len(blocks)*ChannelsPerASIC)
		for f := range blocks {
			for c, s := range blocks[f] {
				limits[f*ChannelsPerASIC+c] = int64(s[0]) + int64(s[1]) + int64(s[2]) + int64(s[3]) + int64(c&1)
			}
		}
		return limits
	}
	clamped := func(blocks []sampleBlock) []int64 {
		limits := make([]int64, len(blocks)*ChannelsPerASIC)
		for i := range limits {
			limits[i] = []int64{minLimit, -40, 0, 1 << 24, 1 << 40}[i%5]
		}
		return limits
	}
	random := func(blocks []sampleBlock, below int) []int64 {
		limits := make([]int64, len(blocks)*ChannelsPerASIC)
		for i := range limits {
			limits[i] = int64(rng.Intn(below))
		}
		return limits
	}

	blocks := make([]sampleBlock, 4)
	fill(blocks, func() uint16 { return 0xFFFF })
	whole("all 0xFFFF, limits at the boundary", blocks, boundary(blocks))
	whole("all 0xFFFF, limits clamped", blocks, clamped(blocks))
	fill(blocks, func() uint16 { return 0 })
	whole("all zero, limits clamped", blocks, clamped(blocks))
	whole("all zero, limits at the boundary", blocks, boundary(blocks))
	fill(blocks, func() uint16 { return 0x8000 | uint16(rng.Intn(0x8000)) })
	whole("samples >= 0x8000, limits at the boundary", blocks, boundary(blocks))
	blocks = make([]sampleBlock, 20)
	for w := 0; w < 100; w++ {
		fill(blocks, func() uint16 { return uint16(rng.Intn(0x10000)) })
		switch w % 3 {
		case 0:
			whole("random blocks, limits at the boundary", blocks, boundary(blocks))
		case 1:
			whole("random blocks, limits clamped", blocks, clamped(blocks))
		default:
			whole("random blocks, random limits", blocks, random(blocks, 1<<18))
		}
	}

	// The stop cases, at three places in the ASIC index space. About half
	// the channels are lit, so every frame has lit entries to lose.
	const nf, k = 12, 5
	refold := func(fr []byte) {
		binary.BigEndian.PutUint16(fr[len(fr)-2:], checksum(fr[:len(fr)-2]))
	}
	mutations := []struct {
		name string
		edit func(fr []byte)
	}{
		{"wrong event id", func(fr []byte) { PatchFrameEventID(fr, event+1) }},
		{"wrong ASIC index, low byte", func(fr []byte) { fr[2]++; refold(fr) }},
		{"wrong ASIC index, high byte", func(fr []byte) { fr[3] ^= 1; refold(fr) }},
		{"wrong sample count", func(fr []byte) { fr[headerBytes-1] = 8; refold(fr) }},
		// The kernel folds the sample count as the constant it checks, so
		// only the header check can stop a frame whose checksum is the one
		// the right count gives.
		{"wrong sample count, checksum of the right one", func(fr []byte) { fr[headerBytes-1] = 8 }},
		{"checksum bit flip", func(fr []byte) { fr[len(fr)-1] ^= 0x20 }},
		{"sample bit flip", func(fr []byte) { fr[headerBytes+37] ^= 0x10 }},
	}
	blocks = make([]sampleBlock, nf)
	for _, start := range []int{0, 250, MaxASICs - nf} {
		fill(blocks, func() uint16 { return uint16(rng.Intn(0x10000)) })
		limits := random(blocks, 1<<18)
		wire, lits := frames(start, blocks, limits)
		for f := range lits {
			if n := len(lits[f]); n == 0 || n >= ChannelsPerASIC-1 {
				t.Fatalf("start %d: frame %d has %d lit channels, want 1..14", start, f, n)
			}
		}
		sup := suppressor(start+nf, start, limits)
		outLen := nf*ChannelsPerASIC + 1
		name := func(what string) string { return fmt.Sprintf("%s, window from ASIC %d", what, start) }

		check(name("clean"), sup, start, slices.Concat(wire...), outLen, lits, nf, nf)
		check(name("one byte short"), sup, start, slices.Concat(wire...)[:(k+1)*oneWordFrame-1], outLen, lits, k, k)
		for _, m := range mutations {
			bad := slices.Clone(wire)
			bad[k] = slices.Clone(wire[k])
			m.edit(bad[k])
			check(name(m.name), sup, start, slices.Concat(bad...), outLen, lits, k, k)
		}
		// A limit table ending eight entries into frame k's sixteen, the
		// rest of which lies behind the guard page.
		short := suppressor(start+k+1, start, limits[:(k+1)*ChannelsPerASIC])
		short.lim32 = guarded(t, short.lim32[:len(short.lim32)-8])
		check(name("limits run out"), short, start, slices.Concat(wire...), outLen, lits, k, k)
		// An output with fifteen free slots when the kernel reaches the last
		// frame: the kernel stops there, one slot short of its bound, and the
		// portable loop, which needs one slot more than the frame's lit
		// entries, finishes the window.
		last := len(slices.Concat(lits[:nf-1]...))
		check(name("output runs out"), sup, start, slices.Concat(wire...), last+ChannelsPerASIC-1, lits, nf, nf-1)
	}
}
