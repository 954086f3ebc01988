package design

import (
	"testing"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

func vcfg(strategy PassStrategy, conn grid.Connectivity, rows, cols int) VariantConfig {
	return VariantConfig{Rows: rows, Cols: cols, Connectivity: conn, Strategy: strategy}
}

// The §3 design rationale, quantified: under 4-way the 1.5-pass design
// beats both alternatives at every studied size. Under 8-way, single-pass
// edges it on raw latency (no resolve loop, diagonal merges absorbed into
// the II=2 scan) — the upside §6 cites for investigating single-pass — but
// two-pass always loses, and single-pass pays a large resource premium
// (TestSinglePassResourcePremium).
func TestPassStrategyRanking(t *testing.T) {
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		for _, sz := range [][2]int{{8, 10}, {16, 16}, {24, 24}, {32, 32}, {43, 43}, {64, 64}} {
			l15 := VariantLatency(vcfg(PassOneAndHalf, conn, sz[0], sz[1]))
			l2 := VariantLatency(vcfg(PassTwo, conn, sz[0], sz[1]))
			l1 := VariantLatency(vcfg(PassSingle, conn, sz[0], sz[1]))
			if l15 >= l2 {
				t.Errorf("%v %dx%d: 1.5-pass (%d) not faster than two-pass (%d)",
					conn, sz[0], sz[1], l15, l2)
			}
			if conn == grid.FourWay && l15 >= l1 {
				t.Errorf("4-way %dx%d: 1.5-pass (%d) not faster than single-pass (%d)",
					sz[0], sz[1], l15, l1)
			}
			if conn == grid.EightWay && l1 >= l15 {
				t.Errorf("8-way %dx%d: single-pass (%d) should edge 1.5-pass (%d) in this model",
					sz[0], sz[1], l1, l15)
			}
		}
	}
}

// The 1.5-pass variant's latency model must agree with the published
// pipelined design's (same schedule).
func TestVariantOneAndHalfMatchesPublishedModel(t *testing.T) {
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		for _, sz := range [][2]int{{8, 10}, {43, 43}, {64, 64}} {
			v := VariantLatency(vcfg(PassOneAndHalf, conn, sz[0], sz[1]))
			p := Latency(StagePipelined, conn, sz[0], sz[1])
			if v != p {
				t.Errorf("%v %dx%d: variant %d != published %d", conn, sz[0], sz[1], v, p)
			}
		}
	}
}

// Two-pass adds exactly one II=1 full-array relabel pass.
func TestTwoPassDelta(t *testing.T) {
	for _, sz := range [][2]int{{8, 10}, {43, 43}} {
		n := int64(sz[0] * sz[1])
		d := VariantLatency(vcfg(PassTwo, grid.FourWay, sz[0], sz[1])) -
			VariantLatency(vcfg(PassOneAndHalf, grid.FourWay, sz[0], sz[1]))
		if d != n-1+loadDepth {
			t.Errorf("%dx%d relabel delta = %d, want %d", sz[0], sz[1], d, n-1+loadDepth)
		}
	}
}

// Single-pass removes the resolve loop but pays II=2 in the scan.
func TestSinglePassStructure(t *testing.T) {
	cfg := vcfg(PassSingle, grid.FourWay, 8, 10)
	// 4N + 59: load (80+11) + scan (2*79+24) + output (80+11) + 15 = 379.
	if got := VariantLatency(cfg); got != 379 {
		t.Fatalf("single-pass 8x10 latency = %d, want 379", got)
	}
}

// §6 wide-output enhancement: more lanes shorten the output loop.
func TestOutputLanesShortenOutput(t *testing.T) {
	base := vcfg(PassOneAndHalf, grid.FourWay, 64, 64)
	prev := VariantLatency(base)
	for _, lanes := range []int{2, 4, 8, 16} {
		cfg := base
		cfg.OutputLanes = lanes
		got := VariantLatency(cfg)
		if got >= prev {
			t.Errorf("lanes=%d latency %d did not improve on %d", lanes, got, prev)
		}
		prev = got
	}
	// With 16 lanes the output loop nearly vanishes: latency approaches
	// 2N + 2MT + const.
	cfg := base
	cfg.OutputLanes = 16
	n, mt := int64(4096), int64(1024)
	want := (n + 11) + (n + 23) + 2*mt + (n/16 + 11) + 15
	if got := VariantLatency(cfg); got != want {
		t.Fatalf("16-lane latency = %d, want %d", got, want)
	}
}

func TestOutputLanesResources(t *testing.T) {
	base := vcfg(PassOneAndHalf, grid.FourWay, 64, 64)
	u1 := VariantResources(base)
	wide := base
	wide.OutputLanes = 8
	u8 := VariantResources(wide)
	if u8.LUT <= u1.LUT || u8.FF <= u1.FF {
		t.Fatal("wider output must cost logic")
	}
}

// Single-pass resource premium: more FF/LUT/BRAM than the published design.
func TestSinglePassResourcePremium(t *testing.T) {
	pub := Resources(StagePipelined, grid.FourWay, 43, 43)
	sp := VariantResources(vcfg(PassSingle, grid.FourWay, 43, 43))
	if sp.FF <= pub.FF || sp.LUT <= pub.LUT || sp.BRAM18K <= pub.BRAM18K {
		t.Fatalf("single-pass %+v should exceed published %+v", sp, pub)
	}
}

// §6 "fully pipelined first pass": overlapped dataflow cuts latency toward
// the bottleneck stage and lets events enter at the stage interval.
func TestOverlappedDataflow(t *testing.T) {
	base := vcfg(PassOneAndHalf, grid.FourWay, 64, 64)
	seq := VariantLatency(base)
	over := base
	over.OverlappedDataflow = true
	lat := VariantLatency(over)
	if lat >= seq {
		t.Fatalf("overlap latency %d not below sequential %d", lat, seq)
	}
	// Bottleneck is one N-trip II=1 loop: interval ≈ N + depth.
	interval := VariantInterval(over)
	if interval >= seq || interval > 4096+scanDepth {
		t.Fatalf("interval = %d, want ≈N", interval)
	}
	// Sequential designs admit one event per latency (II = latency).
	if VariantInterval(base) != seq {
		t.Fatal("sequential interval must equal latency")
	}
	// The overlap costs buffering resources.
	if VariantResources(over).FF <= VariantResources(base).FF {
		t.Fatal("overlap must cost FF")
	}
	if VariantResources(over).BRAM18K <= VariantResources(base).BRAM18K {
		t.Fatal("overlap must cost BRAM (ping-pong buffers)")
	}
}

// Overlapped 43x43 4-way: throughput comfortably beyond the CTA target —
// the quantified payoff of the §6 direction.
func TestOverlappedDataflowBeatsCTATarget(t *testing.T) {
	cfg := vcfg(PassOneAndHalf, grid.FourWay, 43, 43)
	cfg.OverlappedDataflow = true
	interval := VariantInterval(cfg)
	eps := 1e8 / float64(interval)
	if eps < 45000 {
		t.Fatalf("overlapped events/s = %.0f, want ≥ 45k", eps)
	}
	if VariantLatency(cfg) <= interval {
		t.Fatal("overlapped latency must exceed the steady-state interval")
	}
}
