//go:build amd64 && unix

package adapt

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"syscall"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

// beforeGuard returns n writable bytes whose last byte is the last byte of a
// mapped page, the next page being inaccessible: reading or writing one byte
// past the slice faults instead of quietly succeeding.
func beforeGuard(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	if n > page {
		t.Fatalf("beforeGuard(%d): more than one %d-byte page", n, page)
	}
	m, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(m) })
	if err := syscall.Mprotect(m[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return m[page-n : page : page]
}

// TestFrameKernelMatchesPortable pits the AVX2 frame kernel against the
// portable loop on single frames, at the inputs that break SIMD rewrites of
// this sum: unsigned samples at and above 0x8000 (a signed multiply-add reads
// them negative), the all-0xFFFF frame (the largest integral and total), the
// compare at its boundary (raw == lim is lit, raw == lim−1 dark), limits
// clamped to 0 (always lit) and 1<<24 (never lit), and random blocks. Every
// block is checked twice: the kernel alone against a plain sum, with its
// source ending at a guard page and its output fenced by sentinels (assembly
// has no bounds checks — an over-read faults here, an over-write shows); and
// as a framed packet through scan under both kernels, whose consumed bytes
// and lit lists must be identical.
func TestFrameKernelMatchesPortable(t *testing.T) {
	withKernel(t, true) // skips without AVX2; restores the selector when the test ends
	rng := detector.NewRNG(14)
	src := (*[frameSampleBytes]byte)(beforeGuard(t, frameSampleBytes))
	frame := beforeGuard(t, headerBytes+frameSampleBytes+2)
	out := make([]Lit, ChannelsPerASIC+1)

	// check runs one block of samples against one limit table (pre-clamp,
	// as newSuppressor receives them).
	check := func(name string, samples *[ChannelsPerASIC][4]uint16, limits *[ChannelsPerASIC]int64) {
		t.Helper()
		sup := newSuppressor(1, 4, 0, limits[:])
		var wantRaw [ChannelsPerASIC]uint32
		var wantDark, wantTotal uint32
		pkt := Packet{Header: Header{Magic: PacketMagic, Event: 0xC0FFEE, SamplesPerChannel: 4}}
		for c := range samples {
			pkt.Samples[c] = make([]int32, 4)
			for k, v := range samples[c] {
				binary.BigEndian.PutUint16(src[8*c+2*k:], v)
				wantRaw[c] += uint32(v)
				pkt.Samples[c][k] = int32(v)
			}
			wantTotal += wantRaw[c]
			if int64(wantRaw[c]) < limits[c] {
				wantDark |= 1 << c
			}
		}

		const sentinel = 0xDEADBEEF
		fenced := [ChannelsPerASIC + 2]uint32{0: sentinel, ChannelsPerASIC + 1: sentinel}
		raw := (*[ChannelsPerASIC]uint32)(fenced[1:])
		dark, total := frameSumsAVX2(src, (*[ChannelsPerASIC]uint32)(sup.lim32), raw)
		if *raw != wantRaw || dark != wantDark || total != wantTotal {
			t.Fatalf("%s: kernel raw=%v dark=%016b total=%d\nwant   raw=%v dark=%016b total=%d",
				name, *raw, dark, total, wantRaw, wantDark, wantTotal)
		}
		if fenced[0] != sentinel || fenced[ChannelsPerASIC+1] != sentinel {
			t.Fatalf("%s: kernel wrote outside raw[0:16]", name)
		}

		wire, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		copy(frame, wire)
		var legs [2][]Lit
		for k, avx2 := range []bool{false, true} {
			useAVX2 = avx2
			off, i, n := sup.scan(frame, 0, pkt.Event, out, 0)
			if off != len(frame) || i != 1 {
				t.Fatalf("%s: %s scan took %d of %d bytes, i=%d", name, ScanKernel(), off, len(frame), i)
			}
			legs[k] = slices.Clone(out[:n])
		}
		if !slices.Equal(legs[0], legs[1]) {
			t.Fatalf("%s: lit lists differ\nportable: %x\navx2:     %x", name, legs[0], legs[1])
		}
		if want := ChannelsPerASIC - bits.OnesCount32(wantDark); len(legs[1]) != want {
			t.Fatalf("%s: %d lit channels, want %d", name, len(legs[1]), want)
		}
	}

	var samples [ChannelsPerASIC][4]uint16
	var limits [ChannelsPerASIC]int64
	fill := func(v func() uint16) {
		for c := range samples {
			for k := range samples[c] {
				samples[c][k] = v()
			}
		}
	}
	// boundary sets every limit one step either side of its channel's raw
	// integral: even channels raw == lim (lit), odd raw == lim−1 (dark).
	boundary := func() {
		for c := range limits {
			s := samples[c]
			limits[c] = int64(s[0]) + int64(s[1]) + int64(s[2]) + int64(s[3]) + int64(c&1)
		}
	}
	clamped := func() {
		for c := range limits {
			limits[c] = []int64{-40, 0, 1 << 24, 1 << 40}[c%4]
		}
	}

	fill(func() uint16 { return 0xFFFF })
	boundary()
	check("all 0xFFFF, limits at the boundary", &samples, &limits)
	clamped()
	check("all 0xFFFF, limits clamped", &samples, &limits)
	fill(func() uint16 { return 0 })
	check("all zero, limits clamped", &samples, &limits)
	boundary()
	check("all zero, limits at the boundary", &samples, &limits)
	fill(func() uint16 { return 0x8000 | uint16(rng.Intn(0x8000)) })
	boundary()
	check("samples >= 0x8000, limits at the boundary", &samples, &limits)
	for k := 0; k < 2000; k++ {
		fill(func() uint16 { return uint16(rng.Intn(0x10000)) })
		switch k % 3 {
		case 0:
			boundary()
		case 1:
			clamped()
		default:
			for c := range limits {
				limits[c] = int64(rng.Intn(1 << 18))
			}
		}
		check("random block", &samples, &limits)
	}
}
