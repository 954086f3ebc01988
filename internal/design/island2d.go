package design

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/hls/sched"
	"github.com/wustl-adapt/hepccl/internal/hls/stream"
	"github.com/wustl-adapt/hepccl/internal/hls/trace"
)

// Word is one 16-channel output word of the Merge module — the wide FIFO
// element the island-detection function consumes (§4.1).
type Word [Channels]grid.Value

// wordsFor packs a grid's pixels, in row-major order, into 16-channel Merge
// words, zero-padding the tail — the format produced by merging
// zero-suppressed integrals from the ALPHA ASICs.
func wordsFor(g *grid.Grid) []Word {
	flat := g.Flat()
	words := make([]Word, (len(flat)+Channels-1)/Channels)
	for i, v := range flat {
		words[i/Channels][i%Channels] = v
	}
	return words
}

// StreamStat summarizes one hls::stream's traffic during a run.
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
	// Streams reports merge-update stream traffic (pipelined stage only).
	Streams []StreamStat
	// Groups is the number of provisional groups the scan allocated.
	Groups int
	// Islands is the number of distinct final labels.
	Islands int
}

// mergeUpdate is one queued merge-table operation: Group==Target initializes
// a new group; otherwise it is an equivalence record.
type mergeUpdate struct {
	Group, Target grid.Label
}

// Run executes the island_detection_2d design on one event image and returns
// its functional output and synthesis report. The grid shape must match the
// configured NROWS×NCOLS.
func Run(g *grid.Grid, cfg Config) (*Output, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g.Rows() != cfg.Rows || g.Cols() != cfg.Cols {
		return nil, fmt.Errorf("design: image is %dx%d but design was compiled for %dx%d",
			g.Rows(), g.Cols(), cfg.Rows, cfg.Cols)
	}
	return run(wordsFor(g), cfg)
}

func run(words []Word, cfg Config) (*Output, error) {
	rows, cols := cfg.Rows, cfg.Cols
	n := rows * cols
	mtCap := cfg.MergeTableCap
	if mtCap == 0 {
		mtCap = ccl.SizeForPaper(rows, cols)
	}

	// The design's arrays. Their storage bindings per stage (§5.1–5.4:
	// register or dual-port BRAM merge table, 1-cycle BRAM reads, cyclic
	// banks on data) are priced by loops and bramBlocks in model.go.
	data := make([]grid.Value, n)
	labels := make([]grid.Label, n)
	mt := make([]grid.Label, mtCap+1)

	// Merge-update streams (pipelined stage, §5.4). Depth covers the worst
	// case of one update per pixel per stream.
	pipelined := cfg.Stage == StagePipelined
	var updateStreams []*stream.Stream[mergeUpdate]
	var top, left, topLeft, topRight *stream.Stream[mergeUpdate]
	if pipelined {
		mkdepth := n + 1
		top = stream.New[mergeUpdate]("stream_top", mkdepth)
		left = stream.New[mergeUpdate]("stream_left", mkdepth)
		updateStreams = []*stream.Stream[mergeUpdate]{top, left}
		if cfg.Connectivity == grid.EightWay {
			topLeft = stream.New[mergeUpdate]("stream_topleft", mkdepth)
			topRight = stream.New[mergeUpdate]("stream_topright", mkdepth)
			updateStreams = append(updateStreams, topLeft, topRight)
		}
	}

	// ---- Load: refactor the 16-channel words into the data array (§4.1).
	for w, word := range words {
		base := w * Channels
		for c := 0; c < Channels; c++ {
			if i := base + c; i < n {
				data[i] = word[c]
			}
		}
	}

	// ---- Scan: provisional labels + merge-table maintenance (§4.2).
	next := grid.Label(1)
	alloc := func() (grid.Label, error) {
		if int(next) > mtCap {
			return 0, fmt.Errorf("design: %w: capacity %d at 4-way worst case; see EXPERIMENTS.md E9",
				ccl.ErrMergeTableFull, mtCap)
		}
		l := next
		next++
		return l, nil
	}
	// apply performs one queued merge-table operation with the configured
	// update rule.
	apply := func(u mergeUpdate) {
		if u.Group == u.Target {
			mt[u.Group] = u.Group // new-group init
			return
		}
		if cfg.FixedUpdate {
			// §6 "logical fix": chase both to roots, link max at min.
			ra, rb := u.Group, u.Target
			for mt[ra] != ra {
				ra = mt[ra]
			}
			for mt[rb] != rb {
				rb = mt[rb]
			}
			switch {
			case ra == rb:
			case ra < rb:
				mt[rb] = ra
			default:
				mt[ra] = rb
			}
			return
		}
		// Published rule (Fig 6): entry takes the minimum of its current
		// value and the incoming label, if the group exists.
		if cur := mt[u.Group]; cur != 0 && u.Target < cur {
			mt[u.Group] = u.Target
		}
	}
	// emit queues (pipelined) or applies (serialized) a merge update.
	emit := func(s *stream.Stream[mergeUpdate], u mergeUpdate) error {
		if !pipelined {
			apply(u)
			return nil
		}
		return s.Write(u)
	}

	offsets := cfg.Connectivity.ScanNeighbors()
	// Map a scan-neighbor offset to its stream (pipelined stage).
	streamFor := func(o grid.Offset) *stream.Stream[mergeUpdate] {
		switch {
		case o.DR == -1 && o.DC == -1:
			return topLeft
		case o.DR == -1 && o.DC == 0:
			return top
		case o.DR == -1 && o.DC == 1:
			return topRight
		default:
			return left
		}
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
	tracePixel := func(idx int, lit bool, label grid.Label, merges int) error {
		if vcd == nil {
			return nil
		}
		vcd.Set(sigIdx, int64(idx))
		b := int64(0)
		if lit {
			b = 1
		}
		vcd.Set(sigLit, b)
		vcd.Set(sigLabel, int64(label))
		vcd.Set(sigMerges, int64(merges))
		return vcd.Tick(1)
	}

	// prev holds the left neighbor's label in a register to break the
	// read-after-write hazard the paper removes with a buffer (§5.4).
	for r := 0; r < rows; r++ {
		prev := grid.Label(0)
		for c := 0; c < cols; c++ {
			idx := r*cols + c
			if data[idx] == 0 {
				labels[idx] = 0
				prev = 0
				if err := tracePixel(idx, false, 0, 0); err != nil {
					return nil, err
				}
				continue
			}
			// Gather scanned-neighbor labels.
			minL := grid.Label(0)
			type nb struct {
				label grid.Label
				off   grid.Offset
			}
			var neigh [4]nb
			nn := 0
			for _, o := range offsets {
				nr, nc := r+o.DR, c+o.DC
				if nr < 0 || nc < 0 || nc >= cols {
					continue
				}
				var l grid.Label
				if o.DR == 0 && o.DC == -1 {
					l = prev // buffered left neighbor
				} else {
					l = labels[nr*cols+nc]
				}
				if l == 0 {
					continue
				}
				neigh[nn] = nb{label: l, off: o}
				nn++
				if minL == 0 || l < minL {
					minL = l
				}
			}
			var cur grid.Label
			pixelUpdates := 0
			if nn == 0 {
				l, err := alloc()
				if err != nil {
					return nil, err
				}
				cur = l
				// New-island initialization travels on stream_top — the
				// Fig 12 single-write pattern guarantees at most one
				// stream_top write per iteration, because this branch and
				// the top-merge branch are exclusive.
				if err := emit(top, mergeUpdate{Group: l, Target: l}); err != nil {
					return nil, err
				}
				pixelUpdates++
			} else {
				cur = minL
				for i := 0; i < nn; i++ {
					nbr := neigh[i]
					if nbr.label == minL {
						continue
					}
					s := left
					if pipelined {
						s = streamFor(nbr.off)
					}
					if err := emit(s, mergeUpdate{Group: nbr.label, Target: cur}); err != nil {
						return nil, err
					}
					pixelUpdates++
				}
			}
			labels[idx] = cur
			prev = cur
			if err := tracePixel(idx, true, cur, pixelUpdates); err != nil {
				return nil, err
			}
			// The decoupled merge process consumes queued updates
			// concurrently with the scan; draining here preserves the
			// hardware's per-pixel ordering.
			if pipelined {
				for _, s := range updateStreams {
					for !s.Empty() {
						apply(s.MustRead())
					}
				}
			}
		}
	}

	// ---- Resolve: ascending double-dereference (§4.3).
	dynResolve := 0
	for i := 1; i <= mtCap; i++ {
		dynResolve++
		e := mt[i]
		if e == 0 {
			break
		}
		mt[i] = mt[e]
	}

	// ---- Output: direct merge-table lookup per pixel (§4.4).
	if vcd != nil {
		if err := vcd.Close(); err != nil {
			return nil, err
		}
	}
	final := grid.NewLabels(rows, cols)
	for i, l := range labels {
		if l != 0 {
			l = mt[l]
		}
		final.SetFlat(i, l)
	}

	// ---- Schedule & report.
	ledger := sched.NewLedger()
	for _, l := range loops(cfg.Stage, cfg.Connectivity, n, mtCap, cfg.DualWriteStreams) {
		ledger.ChargeLoop(l)
	}
	ledger.Charge("overhead", overhead(cfg.Stage, cfg.Connectivity))

	worst := ledger.Total()
	// Data-dependent latency: the resolve loop exits at the first zero entry.
	dynamic := worst - int64(resolveIter)*int64(mtCap-dynResolve)

	var stats []StreamStat
	for _, s := range updateStreams {
		stats = append(stats, StreamStat{Name: s.Name(), Writes: s.Writes(), MaxOccupancy: s.MaxOccupancy()})
	}

	out := &Output{
		Labels: final,
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
		Groups:  int(next) - 1,
		Islands: final.Count(),
	}
	return out, nil
}
