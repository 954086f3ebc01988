package design

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/hls/sched"
	"github.com/wustl-adapt/hepccl/internal/hls/trace"
)

// StreamStat summarizes one merge-update stream's traffic during a run. The
// merge process drains every stream after each pixel, and a pixel writes at
// most one update per stream, so MaxOccupancy is never more than 1.
type StreamStat struct {
	Name         string
	Writes       int64
	MaxOccupancy int
}

// Output is the result of running a design configuration on one event.
type Output struct {
	// Labels is the final label image: the output loop's merge-table
	// lookup of every pixel (§4.4).
	Labels *grid.Labels
	// Report is the Vitis-style synthesis report for the configuration.
	Report resource.Report
	// Ledger breaks the worst-case latency down by loop.
	Ledger *sched.Ledger
	// Streams reports merge-update stream traffic (pipelined stage only);
	// each stream's MaxOccupancy is at most 1.
	Streams []StreamStat
	// Groups is the number of provisional groups the scan allocated.
	Groups int
	// Islands is the number of distinct final labels.
	Islands int
}

// streamNames lists the pipelined stage's merge-update streams (§5.4) in
// drain order; 4-way uses the first two.
var streamNames = [...]string{"stream_top", "stream_left", "stream_topleft", "stream_topright"}

// streamOf returns the index in streamNames of the stream that carries
// updates from the scanned neighbour at offset o.
func streamOf(o grid.Offset) int {
	switch {
	case o.DR == 0:
		return 1 // left
	case o.DC == 0:
		return 0 // top
	case o.DC < 0:
		return 2 // top-left
	default:
		return 3 // top-right
	}
}

// Run executes the island_detection_2d design on one event image and returns
// its functional output and synthesis report. The grid shape must match the
// configured NROWS×NCOLS.
//
// The functional result is ccl.Label's 1.5-pass scan with the design's update
// rule and merge-table capacity. The design adds the loop schedule, the
// resource estimate, the merge-update stream counts and the scan-loop VCD,
// the last two recovered from the provisional labels.
func Run(g *grid.Grid, cfg Config) (*Output, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rows, cols := cfg.Rows, cfg.Cols
	if g.Rows() != rows || g.Cols() != cols {
		return nil, fmt.Errorf("design: image is %dx%d but design was compiled for %dx%d",
			g.Rows(), g.Cols(), rows, cols)
	}
	mtCap := cfg.MergeTableCap
	if mtCap == 0 {
		mtCap = ccl.SizeForPaper(rows, cols)
	}
	mode := ccl.ModePaper
	if cfg.FixedUpdate {
		mode = ccl.ModeFixed
	}
	res, err := ccl.Label(g, ccl.Options{Connectivity: cfg.Connectivity, Mode: mode, MergeTableCap: mtCap})
	if err != nil {
		return nil, err
	}

	// Optional co-sim waveform of the scan loop (one tick per pixel).
	var vcd *trace.VCD
	var sigIdx, sigLit, sigLabel, sigMerges trace.SignalID
	if cfg.TraceWriter != nil {
		vcd = trace.NewVCD(cfg.TraceWriter, "island_detection_2d", "10ns")
		sigIdx = vcd.Signal("scan_idx", 16)
		sigLit = vcd.Signal("lit", 1)
		sigLabel = vcd.Signal("curr_label", LabelBits)
		sigMerges = vcd.Signal("merge_updates", 8)
		if err := vcd.Begin(); err != nil {
			return nil, err
		}
	}

	// Replay the scan's merge updates from the provisional labels: a lit
	// pixel with no lit scanned neighbour initializes its group on
	// stream_top (the Fig 12 single-write pattern); any other lit pixel
	// writes one update per lit neighbour whose label differs from its own,
	// on that neighbour's stream.
	prov := res.Provisional
	offsets := cfg.Connectivity.ScanNeighbors()
	var writes [len(streamNames)]int64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			l := prov.At(r, c)
			updates, litNeighbours := 0, 0
			if l != 0 {
				for _, o := range offsets {
					nr, nc := r+o.DR, c+o.DC
					if nr < 0 || nc < 0 || nc >= cols {
						continue
					}
					nl := prov.At(nr, nc)
					if nl == 0 {
						continue
					}
					litNeighbours++
					if nl != l {
						writes[streamOf(o)]++
						updates++
					}
				}
				if litNeighbours == 0 {
					writes[0]++
					updates = 1
				}
			}
			if vcd == nil {
				continue
			}
			lit := int64(0)
			if l != 0 {
				lit = 1
			}
			vcd.Set(sigIdx, int64(r*cols+c))
			vcd.Set(sigLit, lit)
			vcd.Set(sigLabel, int64(l))
			vcd.Set(sigMerges, int64(updates))
			if err := vcd.Tick(1); err != nil {
				return nil, err
			}
		}
	}
	if vcd != nil {
		if err := vcd.Close(); err != nil {
			return nil, err
		}
	}

	var stats []StreamStat
	if cfg.Stage == StagePipelined {
		nstreams := 2
		if cfg.Connectivity == grid.EightWay {
			nstreams = 4
		}
		for i, name := range streamNames[:nstreams] {
			stats = append(stats, StreamStat{Name: name, Writes: writes[i], MaxOccupancy: int(min(writes[i], 1))})
		}
	}

	// ---- Schedule & report.
	ledger := sched.NewLedger()
	for _, l := range loops(cfg.Stage, cfg.Connectivity, rows*cols, mtCap, cfg.DualWriteStreams) {
		ledger.ChargeLoop(l)
	}
	ledger.Charge("overhead", overhead(cfg.Stage, cfg.Connectivity))

	worst := ledger.Total()
	// Data-dependent latency: the resolve loop exits at the first zero
	// entry, the one after the last allocated group.
	dynResolve := min(res.Groups+1, mtCap)
	dynamic := worst - int64(resolveIter)*int64(mtCap-dynResolve)

	return &Output{
		Labels: res.Labels,
		Report: resource.Report{
			Design:        "island_detection_2d",
			Stage:         cfg.Stage.String(),
			Connectivity:  cfg.Connectivity,
			Rows:          rows,
			Cols:          cols,
			LatencyCycles: worst,
			II:            worst, // function interval = latency (§5 tables)
			InnerII:       InnerII(cfg.Stage, cfg.DualWriteStreams),
			Usage:         Resources(cfg.Stage, cfg.Connectivity, rows, cols),
			ClockMHz:      ClockMHz,
			DynamicCycles: dynamic,
		},
		Ledger:  ledger,
		Streams: stats,
		Groups:  res.Groups,
		Islands: res.Islands,
	}, nil
}
