package design

import (
	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/hls/sched"
)

// This file implements the §6 future-work design variants the paper names:
//
//	"Future work should investigate a single-pass CCL approach to reduce
//	 latency by removing the need for a second scan. … We also intend to
//	 evaluate a two-pass implementation."
//
// Both are priced on the same pipelined substrate as the published 1.5-pass
// design (VariantLatency, VariantInterval, VariantResources), so the three
// pass strategies can be ranked the way the paper intends. The latency and
// resource models for the variants are this reproduction's estimates — the
// paper publishes no numbers for them — constructed with the same per-loop
// conventions that reproduce Tables 1–4 (see model.go):
//
//   - Two-pass keeps the 1.5-pass front half (II=1 scan + ascending merge-
//     table resolution) and adds the classic second raster pass that
//     rewrites the label array before output: one extra II=1 full-array
//     loop, so latency ≈ 4N + 2·MT + 71.
//   - Single-pass resolves equivalences on the fly with a flat
//     representative-label table (He et al. style), eliminating the resolve
//     loop entirely — but the flat-table relabeling on every merge is a
//     loop-carried dependency the scheduler cannot hide, holding the scan at
//     II=2 ("significant control complexity and data dependencies", §3).
//     Latency ≈ 4N + 59, with noticeably higher FF/LUT for the duplicated
//     table banks and row-relabel datapath.
//
// Ranking: with MT ≈ N/4, the published 4-way 1.5-pass costs ≈3.5N against
// two-pass ≈4.5N and single-pass ≈4N — the balanced 1.5-pass wins at every
// size, which is the design rationale of §3 made quantitative. Under 8-way
// the picture inverts slightly: the 1.5-pass design pays the 1.5N merge-
// update drain (≈5N total) while single-pass absorbs diagonal merges into
// its already-serialized II=2 scan (≈4N), so single-pass can edge it on raw
// latency — exactly the latency upside §6 cites as the reason to
// "investigate a single-pass CCL approach" — at a 25 %+ FF/LUT premium and
// with the control complexity §3 warns about. A second observation the
// comparison surfaces: the single-pass variant's flat table
// (labeling.FlatTable) keeps every class fully resolved at all times, so it
// is immune to the §6 corner case that affects the merge-table designs.

// PassStrategy selects how label equivalences are resolved across passes.
type PassStrategy int

const (
	// PassOneAndHalf is the paper's published 1.5-pass design (§4).
	PassOneAndHalf PassStrategy = iota
	// PassTwo adds a full relabeling raster pass after resolution.
	PassTwo
	// PassSingle resolves on the fly with a flat representative table.
	PassSingle
)

// VariantConfig configures a future-work variant. Variants are built on
// the fully pipelined schedule only.
type VariantConfig struct {
	// Rows, Cols fix the array shape.
	Rows, Cols int
	// Connectivity selects 4-way or 8-way.
	Connectivity grid.Connectivity
	// Strategy selects the pass structure.
	Strategy PassStrategy
	// OutputLanes widens the output interface to emit this many labels per
	// cycle — the §6 "widening the interface to output multiple labels per
	// cycle" enhancement. Zero means 1.
	OutputLanes int
	// OverlappedDataflow streams the stages into each other (#pragma HLS
	// DATAFLOW) instead of running them back-to-back — the §6 "achieving a
	// fully pipelined first pass" direction. The slowest stage then sets the
	// latency; the rest contribute only pipeline fill. It costs "additional
	// buffering and logic replication" (§6), modeled in VariantResources.
	OverlappedDataflow bool
}

func (c VariantConfig) lanes() int {
	if c.OutputLanes < 1 {
		return 1
	}
	return c.OutputLanes
}

// variantLoops builds the stage list of a variant configuration from the
// published pipelined schedule (loops in model.go): the output loop resized
// for the lanes, a relabel pass before it for two-pass, and for single-pass
// an II=2 scan and no resolve or drain.
func variantLoops(cfg VariantConfig) []sched.Loop {
	n := cfg.Rows * cfg.Cols
	lanes := int64(cfg.lanes())
	single := cfg.Strategy == PassSingle
	var out []sched.Loop
	for _, l := range loops(StagePipelined, cfg.Connectivity, n, ccl.SizeForPaper(cfg.Rows, cfg.Cols), false) {
		switch l.Name {
		case "scan":
			if single {
				// Flat-table relabeling is a loop-carried dependency: II=2.
				l.II = 2
			}
		case "resolve", "drain":
			if single {
				// The flat table needs no resolve, and the II=2 scan
				// absorbs the diagonal merge traffic the others drain.
				continue
			}
		case "output":
			l.Trip = (l.Trip + lanes - 1) / lanes
			if cfg.Strategy == PassTwo {
				out = append(out, sched.Loop{Name: "relabel", Trip: int64(n), Pipelined: true, II: 1, Depth: loadDepth})
			}
		}
		out = append(out, l)
	}
	return out
}

// VariantLatency returns the modeled worst-case latency of a variant
// configuration.
func VariantLatency(cfg VariantConfig) int64 {
	df := sched.Dataflow{Stages: variantLoops(cfg)}
	if cfg.OverlappedDataflow {
		return df.OverlappedLatency() + overhead(StagePipelined, cfg.Connectivity)
	}
	return df.SequentialLatency() + overhead(StagePipelined, cfg.Connectivity)
}

// VariantInterval returns the steady-state event interval: with overlapped
// dataflow, back-to-back events enter at the bottleneck stage's pace; the
// sequential design admits one event per full latency (II = latency, as the
// paper's tables report).
func VariantInterval(cfg VariantConfig) int64 {
	if !cfg.OverlappedDataflow {
		return VariantLatency(cfg)
	}
	return sched.Dataflow{Stages: variantLoops(cfg)}.Interval()
}

// VariantResources estimates a variant's resource usage relative to the
// published pipelined design.
func VariantResources(cfg VariantConfig) resource.Usage {
	base := Resources(StagePipelined, cfg.Connectivity, cfg.Rows, cfg.Cols)
	n := cfg.Rows * cfg.Cols
	mt := ccl.SizeForPaper(cfg.Rows, cfg.Cols)
	lanes := cfg.lanes()
	// Wider output: multiplexed lanes add datapath; the output FIFO repacks
	// to lanes×16-bit words.
	if lanes > 1 {
		base.LUT += (lanes - 1) * 64
		base.FF += (lanes - 1) * 32
		outNarrow := resource.BRAM18KFor(n, LabelBits)
		if outNarrow < 1 {
			outNarrow = 1
		}
		outWide := resource.BRAM18KFor((n+lanes-1)/lanes, LabelBits*lanes)
		if outWide < 1 {
			outWide = 1
		}
		base.BRAM18K += outWide - outNarrow
	}
	if cfg.OverlappedDataflow {
		// §6: "may require additional buffering and logic replication" —
		// ping-pong buffers between stages plus replicated row state.
		base.FF += n/2 + 800
		base.LUT += n/4 + 600
		base.BRAM18K += 2 * resource.BRAM18KFor(n, LabelBits)
	}
	switch cfg.Strategy {
	case PassTwo:
		// The relabel pass needs a second port set on the label array and
		// its own control FSM.
		base.FF += 220
		base.LUT += 180
	case PassSingle:
		// Flat table: three arrays (rl/next/tail) instead of one, plus the
		// merge-relabel datapath.
		base.BRAM18K += 2 * 2 * resource.BRAM18KFor(mt, LabelBits)
		base.FF += n/2 + 640
		base.LUT += n/3 + 520
	}
	return base
}
