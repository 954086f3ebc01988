// Package resource estimates FPGA resource usage (BRAM18K, FF, LUT) for the
// designs in internal/design and formats Vitis-style synthesis report rows —
// the substitution this reproduction makes for AMD Vitis HLS 2022.1 (see
// DESIGN.md §2).
//
// BRAM packing follows the real RAMB18E1 primitive geometry of the paper's
// Kintex-7 target: an 18 Kb block configurable as 16K×1, 8K×2, 4K×4, 2K×9,
// 1K×18 or 512×36. Small arrays below a threshold map to LUTRAM/registers
// instead, which is what produces the stepwise BRAM growth the paper observes
// ("jumps occur when storage exceeds a BRAM block threshold", §5.5).
package resource

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Device models an FPGA part's capacity. Percent columns in Tables 3–4 are
// utilization against the paper's synthesis target.
type Device struct {
	Name    string
	FF      int
	LUT     int
	BRAM18K int
}

// KintexXC7K325T is the paper's target: Xilinx Kintex-7 XC7K325T-2FFG676
// (§5.5). Capacities are the data-sheet values: 407,600 FFs, 203,800 LUTs,
// 445 RAMB36 blocks = 890 RAMB18 blocks.
var KintexXC7K325T = Device{Name: "xc7k325t-2ffg676", FF: 407600, LUT: 203800, BRAM18K: 890}

// PctFF returns flip-flop utilization as a rounded integer percentage,
// matching the "%" columns of Tables 3 and 4.
func (d Device) PctFF(n int) int { return pct(n, d.FF) }

// PctLUT returns LUT utilization as a rounded integer percentage.
func (d Device) PctLUT(n int) int { return pct(n, d.LUT) }

// PctBRAM returns BRAM18K utilization as a rounded integer percentage.
func (d Device) PctBRAM(n int) int { return pct(n, d.BRAM18K) }

func pct(n, capacity int) int {
	if capacity <= 0 {
		return 0
	}
	return int(float64(n)/float64(capacity)*100 + 0.5)
}

// BRAM18KFor returns the number of RAMB18 blocks needed for a memory of the
// given depth and element width, using the primitive's width/depth modes.
// Widths above 36 are split into ⌈width/36⌉ parallel 512-deep slices.
func BRAM18KFor(depth, widthBits int) int {
	if depth <= 0 || widthBits <= 0 {
		return 0
	}
	if widthBits > 36 {
		cols := (widthBits + 35) / 36
		return cols * ((depth + 511) / 512)
	}
	var maxDepth int
	switch {
	case widthBits <= 1:
		maxDepth = 16384
	case widthBits <= 2:
		maxDepth = 8192
	case widthBits <= 4:
		maxDepth = 4096
	case widthBits <= 9:
		maxDepth = 2048
	case widthBits <= 18:
		maxDepth = 1024
	default:
		maxDepth = 512
	}
	return (depth + maxDepth - 1) / maxDepth
}

// LUTRAMThresholdBits is the storage size below which HLS leaves an array in
// distributed RAM rather than block RAM (Vitis' default auto-binding
// behaviour for small arrays).
const LUTRAMThresholdBits = 1024

// Usage is one design's estimated resource consumption.
type Usage struct {
	BRAM18K int
	FF      int
	LUT     int
}

// Report mirrors one row of the paper's tables: a synthesized configuration
// with its timing and resource results.
type Report struct {
	// Design names the top-level function (e.g. "island_detection_2d").
	Design string
	// Stage is the optimization stage ("Baseline", "Bind Storage",
	// "Unrolled", "Pipelined").
	Stage string
	// Connectivity is 4-way or 8-way.
	Connectivity grid.Connectivity
	// Rows, Cols give the array size.
	Rows, Cols int
	// LatencyCycles is the worst-case function latency in clock cycles.
	LatencyCycles int64
	// II is the function initiation interval. The paper's tables report
	// II = latency because the outer design is not overlapped (§6).
	II int64
	// InnerII is the initiation interval achieved by the inner labeling
	// loop (1 when pipelined — the §5.4/§5.5 headline property).
	InnerII int64
	// Usage is the estimated resource consumption.
	Usage Usage
	// ClockMHz is the synthesis clock (100 MHz in §5.5).
	ClockMHz float64
	// DynamicCycles is the data-dependent cycle count actually consumed by
	// the simulated event, always ≤ LatencyCycles (the resolve loop exits at
	// the first zero merge-table entry). Not part of a Vitis report; kept
	// for model introspection.
	DynamicCycles int64
}

// LatencySeconds converts the worst-case latency to seconds at ClockMHz.
func (r Report) LatencySeconds() float64 {
	if r.ClockMHz <= 0 {
		return 0
	}
	return float64(r.LatencyCycles) / (r.ClockMHz * 1e6)
}

// EventsPerSecond is the §5.5 throughput metric: 1 / (latency_cycles ×
// cycle_time). The paper's 43×43 4-way design reaches ≈15k events/s this way.
func (r Report) EventsPerSecond() float64 {
	s := r.LatencySeconds()
	if s <= 0 {
		return 0
	}
	return 1 / s
}

// SizeLabel renders "8x10"-style size strings used in the tables.
func (r Report) SizeLabel() string { return fmt.Sprintf("%dx%d", r.Rows, r.Cols) }
