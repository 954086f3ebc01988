// Package mem models the on-chip storage kinds an HLS tool can bind an array
// to, with the access-latency and port semantics that drive the paper's
// optimization story (§5.2):
//
//   - Registers: every element in flip-flops; reads are combinational (zero
//     additional cycles) and unlimited ports — but FF/LUT cost scales with
//     the array size.
//   - LUTRAM: distributed RAM; combinational read, cheap for small arrays.
//   - BRAMDualPort: block RAM bound with `#pragma HLS bind_storage ... RAM_2P`;
//     one-cycle read latency and at most two port accesses per cycle. Saves
//     logic but slows a non-pipelined loop — exactly the 998→1158 regression
//     in Table 1 — until pipelining hides the latency (§5.4).
//
// Arrays also support cyclic partitioning (`#pragma HLS ARRAY_PARTITION
// cyclic factor=N`), which splits storage into N independently-ported banks
// so an unrolled loop can touch N elements per cycle (§5.3, Fig 7).
package mem

import "fmt"

// Kind is the storage binding of an array.
type Kind int

const (
	// Registers holds every element in flip-flops (the HLS default for small
	// arrays with heavy multi-porting, and the paper's baseline merge table).
	Registers Kind = iota
	// LUTRAM is distributed RAM built from LUTs.
	LUTRAM
	// BRAMDualPort is dual-port block RAM (RAM_2P): 1-cycle read latency,
	// two ports per cycle.
	BRAMDualPort
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Registers:
		return "registers"
	case LUTRAM:
		return "lutram"
	case BRAMDualPort:
		return "bram-2p"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ReadLatency returns the extra cycles one read costs relative to a
// combinational register read.
func (k Kind) ReadLatency() int {
	if k == BRAMDualPort {
		return 1
	}
	return 0
}

// PortsPerCycle returns how many accesses (reads+writes) one bank supports
// per cycle; 0 means unlimited (register files expose every element).
func (k Kind) PortsPerCycle() int {
	if k == BRAMDualPort {
		return 2
	}
	return 0
}

// Array is one HLS array with its storage binding and access accounting.
// Element values are int32 to match the design's 32-bit channel data.
type Array struct {
	name      string
	kind      Kind
	widthBits int
	banks     int // cyclic partition factor; 1 = unpartitioned
	data      []int32
	reads     int64
	writes    int64
}

// NewArray returns a zeroed array of size elements, each widthBits wide,
// bound to the given storage kind.
func NewArray(name string, size, widthBits int, kind Kind) *Array {
	if size < 1 {
		panic(fmt.Sprintf("mem: array %q size %d", name, size))
	}
	if widthBits < 1 || widthBits > 64 {
		panic(fmt.Sprintf("mem: array %q width %d bits", name, widthBits))
	}
	return &Array{name: name, kind: kind, widthBits: widthBits, banks: 1, data: make([]int32, size)}
}

// Name returns the array name.
func (a *Array) Name() string { return a.name }

// Kind returns the storage binding.
func (a *Array) Kind() Kind { return a.kind }

// Size returns the element count.
func (a *Array) Size() int { return len(a.data) }

// WidthBits returns the element width.
func (a *Array) WidthBits() int { return a.widthBits }

// Bits returns total storage bits.
func (a *Array) Bits() int { return len(a.data) * a.widthBits }

// Banks returns the cyclic partition factor (1 = unpartitioned).
func (a *Array) Banks() int { return a.banks }

// Partition applies cyclic partitioning with the given factor. Element i
// lives in bank i % factor, so factor consecutive elements are in distinct
// banks and can be accessed in the same cycle by an unrolled loop.
func (a *Array) Partition(factor int) {
	if factor < 1 || factor > len(a.data) {
		panic(fmt.Sprintf("mem: array %q partition factor %d of %d elements", a.name, factor, len(a.data)))
	}
	a.banks = factor
}

// BankOf returns the bank index element i maps to under cyclic partitioning.
func (a *Array) BankOf(i int) int { return i % a.banks }

// BankSize returns the (maximum) elements per bank.
func (a *Array) BankSize() int { return (len(a.data) + a.banks - 1) / a.banks }

// BankBits returns storage bits per bank.
func (a *Array) BankBits() int { return a.BankSize() * a.widthBits }

// Read returns element i and counts the access.
func (a *Array) Read(i int) int32 {
	if i < 0 || i >= len(a.data) {
		panic(fmt.Sprintf("mem: array %q read index %d of %d", a.name, i, len(a.data)))
	}
	a.reads++
	return a.data[i]
}

// Write stores v at element i and counts the access.
func (a *Array) Write(i int, v int32) {
	if i < 0 || i >= len(a.data) {
		panic(fmt.Sprintf("mem: array %q write index %d of %d", a.name, i, len(a.data)))
	}
	a.writes++
	a.data[i] = v
}

// Reads returns the total read count.
func (a *Array) Reads() int64 { return a.reads }

// Writes returns the total write count.
func (a *Array) Writes() int64 { return a.writes }

// Reset zeroes the contents (not the access counters) — the per-event
// re-initialization the hardware performs between images.
func (a *Array) Reset() {
	for i := range a.data {
		a.data[i] = 0
	}
}

// Snapshot returns a copy of the contents.
func (a *Array) Snapshot() []int32 {
	out := make([]int32, len(a.data))
	copy(out, a.data)
	return out
}
