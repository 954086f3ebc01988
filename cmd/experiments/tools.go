package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

// label labels one image and prints the label map and its islands. Input
// images are ASCII art ('.'/'0' dark, anything else lit) or PGM unless a
// generator is selected.
func label(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("label", flag.ContinueOnError)
	var (
		inFile    = fs.String("in", "", "ASCII-art or .pgm image file (mutually exclusive with -gen)")
		gen       = fs.String("gen", "", "generator: shower|muon-ring|islands|occupancy|checkerboard|spiral|cornercase")
		rows      = fs.Int("rows", 8, "generated image rows")
		cols      = fs.Int("cols", 10, "generated image cols")
		seed      = fs.Uint64("seed", 1, "generator seed")
		count     = fs.Int("count", 4, "island count for -gen islands")
		occupancy = fs.Float64("occupancy", 0.3, "lit fraction for -gen occupancy")
		conn      = connFlag(fs)
		algo      = fs.String("algo", "ccl-fixed", "algorithm: ccl-fixed|ccl-paper|floodfill")
		showMT    = fs.Bool("show-merge-table", false, "print the resolved merge table (ccl-* algorithms)")
		showIsl   = fs.Bool("islands", true, "print extracted islands with centroids")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkSize(*rows, *cols); err != nil {
		return err
	}
	g, err := loadImage(*inFile, *gen, *rows, *cols, *seed, *count, *occupancy)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "input %dx%d, %d lit pixels (occupancy %.1f%%):\n%s\n\n",
		g.Rows(), g.Cols(), g.LitCount(), g.Occupancy()*100, g)

	var labels *grid.Labels
	switch *algo {
	case "ccl-fixed", "ccl-paper":
		mode := ccl.ModeFixed
		if *algo == "ccl-paper" {
			mode = ccl.ModePaper
		}
		res, err := ccl.Label(g, ccl.Options{
			Connectivity:  *conn,
			Mode:          mode,
			CompactLabels: true,
			MergeTableCap: ccl.SizeFor(g.Rows(), g.Cols(), *conn),
		})
		if err != nil {
			return err
		}
		labels = res.Labels
		fmt.Fprintf(out, "1.5-pass CCL (%s, %s): %d provisional groups -> %d islands\n",
			*conn, mode, res.Groups, res.Islands)
		if *showMT {
			fmt.Fprintf(out, "merge table (resolved):\n%s\n", res.MergeTable)
		}
	case "floodfill":
		labels, err = labeling.FloodFill{}.Label(g, *conn)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "floodfill (%s): %d islands\n", *conn, labels.Count())
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	fmt.Fprintf(out, "\nlabels:\n%s\n", labels)

	if *showIsl {
		fmt.Fprintf(out, "\n%-6s %6s %8s %8s %12s %10s\n", "label", "pixels", "sum", "bbox", "centroid", "hillas L/W")
		for _, is := range ccl.Islands(g, labels) {
			c := centroid.Compute2D(is)
			h := centroid.HillasParameters(is)
			fmt.Fprintf(out, "%-6d %6d %8d %3dx%-4d (%5.2f,%5.2f) %5.2f/%5.2f\n",
				is.Label, is.Size(), is.Sum, is.Height(), is.Width(), c.Row, c.Col, h.Length, h.Width)
		}
	}
	return nil
}

func loadImage(inFile, gen string, rows, cols int, seed uint64, count int, occ float64) (*grid.Grid, error) {
	if inFile != "" && gen != "" {
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	}
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(inFile, ".pgm") {
			return grid.ReadPGM(f)
		}
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		return grid.Parse(string(data))
	}
	rng := detector.NewRNG(seed)
	cam := detector.CameraConfig{Rows: rows, Cols: cols, NSBMeanPE: 0.12, CleaningThresholdPE: 4}
	switch gen {
	case "", "islands":
		return detector.RandomIslands(rows, cols, count, 1.5, rng), nil
	case "shower":
		return cam.Shower(cam.TypicalShower(rng), rng), nil
	case "muon-ring":
		return cam.Ring(cam.TypicalMuonRing(rng), rng), nil
	case "occupancy":
		return detector.RandomOccupancy(rows, cols, occ, rng), nil
	case "checkerboard":
		return detector.Checkerboard(rows, cols), nil
	case "spiral":
		return detector.Spiral(rows, cols), nil
	case "cornercase":
		return grid.Parse("#..#.\n#.##.\n###..")
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

var stageNames = map[string]design.Stage{
	"baseline":     design.StageBaseline,
	"bind-storage": design.StageBindStorage,
	"unrolled":     design.StageUnrolled,
	"pipelined":    design.StagePipelined,
}

// report prints one design's synthesis report on a generated event: latency,
// II, resources with device utilization, the per-loop breakdown and the
// stream statistics.
func report(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		stageFlag = fs.String("stage", "pipelined", "baseline|bind-storage|unrolled|pipelined")
		conn      = connFlag(fs)
		rows      = fs.Int("rows", 8, "array rows (NROWS)")
		cols      = fs.Int("cols", 10, "array cols (NCOLS)")
		seed      = fs.Uint64("seed", 1, "workload seed for the simulated event")
		traceFile = fs.String("trace", "", "write a VCD waveform of the scan loop to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, ok := stageNames[strings.ToLower(*stageFlag)]
	if !ok {
		return fmt.Errorf("unknown stage %q", *stageFlag)
	}
	if err := checkSize(*rows, *cols); err != nil {
		return err
	}
	rng := detector.NewRNG(*seed)
	g := detector.RandomIslands(*rows, *cols, max(2, *rows**cols/80), 1.5, rng)
	// Paper merge-table sizing (the design default) so reports match the
	// published tables. Under 4-way even a sparse event can overflow it
	// (-rows 2 -cols 2 -seed 12 does); then retry with the 4-way-safe
	// capacity and note it. Run writes the waveform only once labeling
	// succeeds, so the retry leaves one VCD.
	cfg := design.Config{Rows: *rows, Cols: *cols, Connectivity: *conn, Stage: st}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.TraceWriter = f
		fmt.Fprintf(out, "writing scan-loop waveform to %s\n", *traceFile)
	}
	res, err := design.Run(g, cfg)
	if err != nil {
		cfg.MergeTableCap = ccl.SizeFor(*rows, *cols, *conn)
		res, err = design.Run(g, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "note: workload overflowed the paper's merge-table sizing; using %d entries\n",
			cfg.MergeTableCap)
	}
	r := res.Report
	dev := resource.KintexXC7K325T
	fmt.Fprintf(out, "== %s | %s | %s | %s @ %.0f MHz ==\n",
		r.Design, r.Stage, r.Connectivity, r.SizeLabel(), r.ClockMHz)
	fmt.Fprintf(out, "latency %8d cycles (%.2f us)   II %8d   inner-loop II %d\n",
		r.LatencyCycles, r.LatencySeconds()*1e6, r.II, r.InnerII)
	fmt.Fprintf(out, "events/s %8.0f   dynamic cycles this event %d\n",
		r.EventsPerSecond(), r.DynamicCycles)
	fmt.Fprintf(out, "BRAM18K %4d (%2d%%)   FF %7d (%2d%%)   LUT %7d (%2d%%)  on %s\n",
		r.Usage.BRAM18K, dev.PctBRAM(r.Usage.BRAM18K),
		r.Usage.FF, dev.PctFF(r.Usage.FF),
		r.Usage.LUT, dev.PctLUT(r.Usage.LUT), dev.Name)
	breakdown := strings.ReplaceAll(res.Ledger.Breakdown(), "\n", "\n  ")
	fmt.Fprintf(out, "loop breakdown:\n  %s\n", breakdown)
	for _, s := range res.Streams {
		fmt.Fprintf(out, "  stream %-16s writes %6d  max occupancy %d\n",
			s.Name, s.Writes, s.MaxOccupancy)
	}
	return nil
}

// pipe runs the ADAPT front-end pipeline end to end: synthetic events are
// digitized into ALPHA packets, calibrated, processed through pedestal
// subtraction, photon counting, zero-suppression, merge and island detection,
// and packed into downlink records.
func pipe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pipe", flag.ContinueOnError)
	var (
		configName = fs.String("config", "adapt", "pipeline configuration: adapt (1D), cta (2D 43x43), or RxC (2D frame geometry, e.g. 64x64)")
		events     = fs.Int("events", 5, "number of events to process")
		seed       = fs.Uint64("seed", 1, "workload seed")
		calEvents  = fs.Int("calibration", 20, "pedestal calibration events before the run")
		verbose    = fs.Bool("v", false, "print per-island details")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *events < 1 {
		return fmt.Errorf("-events must be at least 1, got %d", *events)
	}

	cfg, err := adapt.NamedConfig(*configName, 0)
	if err != nil {
		return err
	}
	p, err := adapt.New(cfg)
	if err != nil {
		return err
	}
	rng := detector.NewRNG(*seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel

	mode := "1D island detection + centroiding"
	if two := cfg.Detection.TwoD; cfg.Detection.TwoDimension {
		mode = fmt.Sprintf("2D %dx%d %s (%s)", two.Rows, two.Cols, two.Connectivity, two.Stage)
	}
	fmt.Fprintf(out, "pipeline: %d ASICs (%d channels), mode=%s\n", cfg.ASICs, p.Channels(), mode)
	fmt.Fprintf(out, "dataflow interval: %d cycles -> %.0f events/s (bottleneck: %s)\n",
		p.EventIntervalCycles(), p.EventsPerSecond(), p.Bottleneck())
	for _, s := range p.StageIntervals() {
		fmt.Fprintf(out, "  stage %-13s %6d cycles/event\n", s.Name, s.Cycles)
	}

	// Pedestal calibration pass.
	cal, err := adapt.GeneratePedestalEvents(*calEvents, cfg.ASICs, dig, rng)
	if err != nil {
		return err
	}
	if err := p.Calibrate(cal); err != nil {
		return err
	}
	fmt.Fprintf(out, "calibrated pedestals from %d light-free events (ch0: %d ADC)\n\n",
		*calEvents, p.Pedestal(0))

	var downlinkBytes, rawBytes, totalIslands int
	for ev := 0; ev < *events; ev++ {
		truth := adapt.GenerateTruth(cfg, rng)
		packets, err := adapt.GenerateEvent(truth, cfg.ASICs, uint32(ev), uint64(ev)*1000, dig, rng)
		if err != nil {
			return err
		}
		for i := range packets {
			rawBytes += packets[i].WireSize()
		}
		res, err := p.ProcessEvent(packets)
		if err != nil {
			return err
		}
		rec := adapt.RecordOf(res)
		wire := rec.Marshal()
		downlinkBytes += len(wire)
		totalIslands += len(rec.Islands)
		fmt.Fprintf(out, "event %d: %d islands, downlink record %d bytes\n",
			rec.Event, len(rec.Islands), len(wire))
		if *verbose {
			for _, is := range rec.Islands {
				fmt.Fprintf(out, "  island %-3d pixels %-4d sum %-8d centroid (%.2f, %.2f)\n",
					is.Label, is.Pixels, is.Sum, is.Row(), is.Col())
			}
		}
	}
	// §1's motivation made concrete: how much the on-board pipeline shrinks
	// the data volume the downlink must carry.
	fmt.Fprintf(out, "\nprocessed %d events: %.1f islands/event\n",
		*events, float64(totalIslands)/float64(*events))
	fmt.Fprintf(out, "raw front-end data: %d bytes (%.0f B/event)\n",
		rawBytes, float64(rawBytes)/float64(*events))
	fmt.Fprintf(out, "downlink records:   %d bytes (%.0f B/event)\n",
		downlinkBytes, float64(downlinkBytes)/float64(*events))
	if downlinkBytes > 0 {
		fmt.Fprintf(out, "on-board data reduction: %.0fx\n", float64(rawBytes)/float64(downlinkBytes))
	}
	return nil
}
