package design

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/hls/sched"
)

// The centroiding half of Fig 3's "2D Island + Centroiding" box, in
// hardware form: instead of collecting pixel lists (unbounded storage), the
// design streams the labeled pixels once, accumulating Σv, Σv·row and Σv·col
// in BRAM arrays indexed by final label, then a short loop over the labels
// performs fixed-point divides. One II=1 pass plus K divides — the same
// structure the 1D design uses, generalized to 2D.

// CentroidFx is one island's hardware centroid in Q16.16 fixed point (the
// FPGA has no float datapath; the downlink format of transmit.go matches).
type CentroidFx struct {
	// Label is the island's final label.
	Label grid.Label
	// RowQ16, ColQ16 are the centroid coordinates in Q16.16.
	RowQ16, ColQ16 int32
	// Sum is the island's total integrated value.
	Sum int64
	// Pixels is the island's pixel count.
	Pixels int32
}

// Row returns the centroid row as a float.
func (c CentroidFx) Row() float64 { return float64(c.RowQ16) / 65536 }

// Col returns the centroid column as a float.
func (c CentroidFx) Col() float64 { return float64(c.ColQ16) / 65536 }

// CentroidOutput is the centroid design's result.
type CentroidOutput struct {
	// Centroids lists islands in ascending label order.
	Centroids []CentroidFx
	// Report is the stage's synthesis report.
	Report resource.Report
	// Ledger breaks down the latency.
	Ledger *sched.Ledger
}

// Centroid model constants: accumulate pass II=1; one fixed-point divide
// unit shared across the three quotients of each island.
const (
	centroidAccumDepth = 14
	// The divider core is fully pipelined: one island enters every
	// centroidDivideII cycles (row and col quotients interleaved), with
	// centroidDivideDepth cycles of fill.
	centroidDivideII    = 2
	centroidDivideDepth = 36
	centroidOverhead    = 10
)

// CentroidResources estimates the design's resource usage: three 48-bit
// accumulator arrays plus a pixel counter, all dual-port BRAM, and the
// sequential divider.
func CentroidResources(n, maxLabels int) resource.Usage {
	acc := 3 * resource.BRAM18KFor(maxLabels, 48)
	cnt := resource.BRAM18KFor(maxLabels, 24)
	if acc < 3 {
		acc = 3
	}
	if cnt < 1 {
		cnt = 1
	}
	return resource.Usage{
		BRAM18K: acc + cnt + 1, // + input label FIFO
		FF:      4*n/16 + 1450, // streaming regs + divider state
		LUT:     3*n/16 + 1800, // address muxing + divider
	}
}

// RunCentroid2D executes the centroid stage over a labeled image. maxLabels
// bounds the accumulator arrays (0 means the paper's merge-table sizing of
// the image shape, the natural bound on final labels).
func RunCentroid2D(g *grid.Grid, labels *grid.Labels, maxLabels int) (*CentroidOutput, error) {
	if g.Rows() != labels.Rows() || g.Cols() != labels.Cols() {
		return nil, fmt.Errorf("design: centroid needs matching shapes, got %dx%d vs %dx%d",
			g.Rows(), g.Cols(), labels.Rows(), labels.Cols())
	}
	if maxLabels == 0 {
		maxLabels = (g.Rows()*g.Cols() + 1) / 2 // any label assignment fits
	}
	n := g.Pixels()

	// Accumulator arrays, indexed by label (1-based). The hardware's are
	// 48 bits wide (24 for the count); CentroidResources prices them.
	sumV := make([]int64, maxLabels+1)
	sumR := make([]int64, maxLabels+1)
	sumC := make([]int64, maxLabels+1)
	count := make([]int32, maxLabels+1)

	// Pass 1: accumulate (II=1 over all pixels).
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			l := labels.At(r, c)
			if l == 0 {
				continue
			}
			if int(l) > maxLabels {
				return nil, fmt.Errorf("design: label %d exceeds accumulator bound %d", l, maxLabels)
			}
			v := int64(g.At(r, c))
			sumV[l] += v
			sumR[l] += v * int64(r)
			sumC[l] += v * int64(c)
			count[l]++
		}
	}

	// Pass 2: fixed-point divides per live label, ascending.
	var out []CentroidFx
	for l := 1; l <= maxLabels; l++ {
		if sumV[l] == 0 {
			continue
		}
		out = append(out, CentroidFx{
			Label:  grid.Label(l),
			RowQ16: fxDivide(sumR[l], sumV[l]),
			ColQ16: fxDivide(sumC[l], sumV[l]),
			Sum:    sumV[l],
			Pixels: count[l],
		})
	}

	ledger := sched.NewLedger()
	ledger.ChargeLoop(sched.Loop{Name: "accumulate", Trip: int64(n), Pipelined: true, II: 1, Depth: centroidAccumDepth})
	ledger.ChargeLoop(sched.Loop{Name: "divide", Trip: int64(maxLabels), Pipelined: true, II: centroidDivideII, Depth: centroidDivideDepth})
	ledger.Charge("overhead", centroidOverhead)
	worst := ledger.Total()
	dynamic := worst - int64(centroidDivideII)*int64(maxLabels-len(out))

	return &CentroidOutput{
		Centroids: out,
		Report: resource.Report{
			Design:        "island_centroid_2d",
			Stage:         "Pipelined",
			Rows:          g.Rows(),
			Cols:          g.Cols(),
			LatencyCycles: worst,
			II:            worst,
			InnerII:       1,
			Usage:         CentroidResources(n, maxLabels),
			ClockMHz:      ClockMHz,
			DynamicCycles: dynamic,
		},
		Ledger: ledger,
	}, nil
}

// fxDivide computes (num << 16) / den with round-to-nearest — the Q16.16
// restoring divider the hardware would instantiate.
func fxDivide(num, den int64) int32 {
	if den == 0 {
		return 0
	}
	q := ((num << 16) + den/2) / den
	const maxQ = int64(1)<<31 - 1
	if q > maxQ {
		q = maxQ
	}
	if q < -(maxQ + 1) {
		q = -(maxQ + 1)
	}
	return int32(q)
}
