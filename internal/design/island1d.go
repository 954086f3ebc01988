package design

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/hls/sched"
)

// Island1D is one island of consecutive nonzero integrals in a 1D channel
// array (Fig 2, right) with its centroid — the original ADAPT
// island_detection_and_centroiding output (§1).
type Island1D struct {
	// Start and End are the inclusive channel bounds of the island.
	Start, End int
	// Sum is the total integrated value (deposited energy estimate).
	Sum int64
	// Centroid is the energy-weighted mean channel position,
	// Σ(i·vᵢ)/Σ(vᵢ), the interaction-position estimate.
	Centroid float64
}

// Width returns the island's channel span.
func (i Island1D) Width() int { return i.End - i.Start + 1 }

// Output1D is the result of the 1D design on one event.
type Output1D struct {
	Islands []Island1D
	Report  resource.Report
	Ledger  *sched.Ledger
}

// Latency model for the 1D design. The paper does not tabulate the 1D stage
// (it predates this work, [21, 23]); the model mirrors the 2D pipelined
// schedule's conventions: an II=1 scan over the channel array plus a
// per-island centroid division.
const (
	oneDScanDepth    = 16
	oneDDivideCycles = 12 // fixed-point divide latency per island
	oneDOverhead     = 30
)

// MaxIslands1D returns the worst-case island count for n channels
// (alternating lit/dark).
func MaxIslands1D(n int) int { return (n + 1) / 2 }

// RunIsland1D executes the 1D island detection + centroiding design over a
// channel array on the pipelined schedule of the shipped ADAPT firmware.
func RunIsland1D(values []grid.Value) (*Output1D, error) {
	n := len(values)
	if n == 0 {
		return nil, fmt.Errorf("design: 1D island detection needs at least one channel")
	}

	var islands []Island1D
	start := -1
	var sum, weighted int64
	flush := func(end int) {
		if start < 0 {
			return
		}
		islands = append(islands, Island1D{
			Start:    start,
			End:      end,
			Sum:      sum,
			Centroid: float64(weighted) / float64(sum),
		})
		start, sum, weighted = -1, 0, 0
	}
	for i, v := range values {
		if v != 0 {
			if start < 0 {
				start = i
			}
			sum += int64(v)
			weighted += int64(i) * int64(v)
			continue
		}
		flush(i - 1)
	}
	flush(n - 1)

	ledger := sched.NewLedger()
	ledger.ChargeLoop(sched.Loop{
		Name: "scan", Trip: int64(n), Pipelined: true, II: 1, Depth: oneDScanDepth,
	})
	// Worst-case centroid divides: one per possible island.
	ledger.ChargeLoop(sched.Loop{
		Name: "centroid", Trip: int64(MaxIslands1D(n)), IterLatency: oneDDivideCycles,
	})
	ledger.Charge("overhead", oneDOverhead)
	worst := ledger.Total()
	dynamic := worst - int64(oneDDivideCycles)*int64(MaxIslands1D(n)-len(islands))

	return &Output1D{
		Islands: islands,
		Report: resource.Report{
			Design:        "island_detection_and_centroiding",
			Stage:         "Pipelined",
			Rows:          1,
			Cols:          n,
			LatencyCycles: worst,
			II:            worst,
			InnerII:       1,
			Usage: resource.Usage{
				BRAM18K: 2 + resource.BRAM18KFor(n, PixelBits),
				FF:      8*n + 520,
				LUT:     3*n + 410,
			},
			ClockMHz:      ClockMHz,
			DynamicCycles: dynamic,
		},
		Ledger: ledger,
	}, nil
}
