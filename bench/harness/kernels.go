package harness

import (
	"fmt"
	"os"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/runccl"
	"github.com/wustl-adapt/hepccl/internal/tileccl"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// Kernel-only layer numbers: each layer's public entry point timed on its
// own, on inputs made from the seed. None of them involves the daemon.

// kernelRep is how long one kernel repetition aims to run.
const kernelRep = 20 * time.Millisecond

// bestOf times fn (one pass over a kernel's inputs, units of work per pass)
// in repetitions of about kernelRep until minReps are done and budget is
// spent, and returns the per-rep nanoseconds per unit.
func bestOf(budget time.Duration, minReps, units int, fn func()) []float64 {
	start := time.Now()
	fn() // warm-up: grow arenas, fault pages
	passes := int(kernelRep/time.Since(start)) + 1
	var reps []float64
	for len(reps) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			fn()
		}
		reps = append(reps, float64(time.Since(t0))/float64(passes*units))
	}
	return reps
}

// litImage applies the pipeline's zero-suppression to a truth image: the
// labelers see what serving would label, not sub-threshold night-sky noise.
func litImage(truth []grid.Value, thresholdPE grid.Value, px int) []grid.Value {
	img := make([]grid.Value, px)
	for i := range img {
		if truth[i] > thresholdPE {
			img[i] = truth[i]
		}
	}
	return img
}

// images2D returns the workload's zero-suppressed truth images and their
// geometry; a 1D workload labels as a single row.
func images2D(in *Inputs) (rows, cols int, imgs [][]grid.Value) {
	rows, cols = 1, in.Cfg.ASICs*adapt.ChannelsPerASIC
	if d := in.Cfg.Detection; d.TwoDimension {
		rows, cols = d.TwoD.Rows, d.TwoD.Cols
	}
	for _, t := range in.Truth {
		imgs = append(imgs, litImage(t, in.Cfg.ThresholdPE, rows*cols))
	}
	return rows, cols, imgs
}

// RunCCLKernel times runccl's Pack+Label over the workload's images and
// counts the runs the batch extractor sees in them (exact for a seed).
func RunCCLKernel(in *Inputs, budget time.Duration, minReps int) (labelNs []float64, runsPerEvent float64, err error) {
	rows, cols, imgs := images2D(in)
	eng, err := runccl.NewEngine(rows, cols, grid.FourWay)
	if err != nil {
		return nil, 0, fmt.Errorf("runccl engine: %w", err)
	}
	var bitmap []uint64
	var islands []runccl.Island
	labelNs = bestOf(budget, minReps, len(imgs), func() {
		for _, img := range imgs {
			bitmap = eng.Pack(img, bitmap)
			islands = eng.Label(bitmap, img, islands[:0])
		}
	})
	b := eng.NewBatch()
	b.Reset()
	for _, img := range imgs {
		bitmap = eng.Pack(img, bitmap)
		b.BeginEvent()
		b.ExtractEvent(bitmap, img)
		b.EndEvent()
	}
	return labelNs, float64(b.Runs()) / float64(len(imgs)), nil
}

// PaperKernels are the numbers that do not depend on the workload being run:
// they always use the cta-sat and frame512-sat inputs of the same seed.
type PaperKernels struct {
	CCLLabelNs    []float64 // ccl.Label, ModeFixed, per 43x43 event
	DesignCycles  float64   // exact
	DesignRate    float64   // exact, events/s at 100 MHz
	DesignSimUs   []float64 // host time of design.Run
	RunFrame512Us []float64 // runccl single core, per 512x512 frame
	TileW1Us      []float64
	TileW2Us      []float64
	TileUs        float64 // instrumented W1 phases, mean per frame
	MergeUs       float64
	ScatterUs     float64
	WALAppendNs   float64 // median Append of one CTA event
	WALRotateMs   float64 // median Append that crossed a segment
	WALBytesPerEv float64
	TwoCPUs       bool // whether W2 really had two CPUs
}

// RunPaperKernels measures them. cta must be the cta-sat inputs; the frame
// images are drawn here from the same seed.
func RunPaperKernels(cta *Inputs, host *Host, out string, budget time.Duration, minReps int) (*PaperKernels, error) {
	k := &PaperKernels{}
	each := budget / 8

	// ccl: the paper's 1.5-pass labeler on the camera images.
	rows, cols, imgs := images2D(cta)
	grids := make([]*grid.Grid, len(imgs))
	for i, img := range imgs {
		grids[i] = grid.New(rows, cols)
		copy(grids[i].Flat(), img)
	}
	var cerr error
	k.CCLLabelNs = bestOf(each, minReps, len(grids), func() {
		for _, g := range grids {
			if _, err := ccl.Label(g, ccl.Options{Mode: ccl.ModeFixed}); err != nil {
				cerr = err
			}
		}
	})
	if cerr != nil {
		return nil, fmt.Errorf("ccl.Label: %w", cerr)
	}

	// design: the simulated 43x43 4-way pipelined FPGA design. Latency and
	// rate are simulated time and exact; only the host time is a timing.
	dcfg := cta.Cfg.Detection.TwoD
	var dout *design.Output
	few := grids
	if len(few) > 8 {
		few = few[:8]
	}
	k.DesignSimUs = scale(bestOf(each, minReps, len(few), func() {
		for _, g := range few {
			o, err := design.Run(g, dcfg)
			if err != nil {
				cerr = err
				return
			}
			dout = o
		}
	}), 1e-3)
	if cerr != nil || dout == nil {
		return nil, fmt.Errorf("design.Run: %w", cerr)
	}
	k.DesignCycles = float64(dout.Report.LatencyCycles)
	k.DesignRate = dout.Report.EventsPerSecond()

	// frame512: single-core runccl against tileccl at one and two workers.
	fw, err := WorkloadByName("frame512-sat")
	if err != nil {
		return nil, err
	}
	fcfg, err := fw.PipelineConfig()
	if err != nil {
		return nil, err
	}
	fr, fc := fcfg.Detection.TwoD.Rows, fcfg.Detection.TwoD.Cols
	rng := detector.NewRNG(cta.Seed*0x9E3779B97F4A7C15 + fw.salt)
	frames := 16
	if len(cta.Events) < 16 {
		frames = 2 // smoke
	}
	single, err := runccl.NewEngine(fr, fc, grid.FourWay)
	if err != nil {
		return nil, fmt.Errorf("runccl engine: %w", err)
	}
	fimgs := make([][]grid.Value, frames)
	fbits := make([][]uint64, frames)
	for i := range fimgs {
		fimgs[i] = litImage(fw.truth(fcfg, rng), fcfg.ThresholdPE, fr*fc)
		fbits[i] = single.Pack(fimgs[i], nil)
	}
	var islands []runccl.Island
	k.RunFrame512Us = scale(bestOf(each, minReps, frames, func() {
		for i := range fimgs {
			islands = single.Label(fbits[i], fimgs[i], islands[:0])
		}
	}), 1e-3)

	tiled := func(workers int, instrument bool) ([]float64, [3]float64, error) {
		e, err := tileccl.New(tileccl.Config{Rows: fr, Cols: fc, Workers: workers})
		if err != nil {
			return nil, [3]float64{}, fmt.Errorf("tileccl engine: %w", err)
		}
		defer e.Close()
		e.SetInstrument(instrument)
		var ph [3]int64
		labels := 0
		us := scale(bestOf(each, minReps, frames, func() {
			for i := range fimgs {
				islands = e.Label(fbits[i], fimgs[i], islands[:0])
				if instrument {
					tn, mn := e.Phases()
					ph[0] += tn
					ph[1] += mn
					ph[2] += e.MergeScatterNs()
					labels++
				}
			}
		}), 1e-3)
		var mean [3]float64
		if labels > 0 {
			for i := range ph {
				mean[i] = float64(ph[i]) / float64(labels) / 1e3
			}
		}
		return us, mean, nil
	}
	var terr error
	// Both CPUs, the daemons parked: the only honest way to read W2.
	werr := host.WithAllCPUs(func() {
		k.TwoCPUs = host.Pinned
		var ph [3]float64
		if k.TileW1Us, _, terr = tiled(1, false); terr != nil {
			return
		}
		if k.TileW2Us, _, terr = tiled(2, false); terr != nil {
			return
		}
		if _, ph, terr = tiled(1, true); terr != nil {
			return
		}
		k.TileUs, k.MergeUs, k.ScatterUs = ph[0], ph[1], ph[2]
	})
	if terr != nil {
		return nil, terr
	}
	if werr != nil {
		return nil, fmt.Errorf("widen affinity: %w", werr)
	}

	if err := k.walKernel(cta, out); err != nil {
		return nil, err
	}
	return k, nil
}

// walKernel times individual Appends of CTA events into 64 MiB segments
// until enough of them have crossed a segment boundary.
func (k *PaperKernels) walKernel(cta *Inputs, out string) error {
	dir, err := os.MkdirTemp(out, "wal-kernel-")
	if err != nil {
		return fmt.Errorf("wal kernel dir: %w", err)
	}
	defer os.RemoveAll(dir)
	segBytes := int64(64 << 20)
	rotationsWanted := 6
	if len(cta.Events) < 16 { // smoke: small segments, still a few rotations
		segBytes, rotationsWanted = 1<<20, 3
	}
	w, _, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: segBytes, Retain: 2})
	if err != nil {
		return fmt.Errorf("wal kernel: %w", err)
	}
	defer w.Close()
	var plain, rot []float64
	// The first append opens the first segment; it is set-up, not a rotation.
	if err := w.Append(0, cta.Events[0].Stream); err != nil {
		return fmt.Errorf("wal kernel append: %w", err)
	}
	segs := w.Snapshot().Segments
	for i := 1; len(rot) < rotationsWanted; i++ {
		ev := cta.Events[i%len(cta.Events)].Stream
		t0 := time.Now()
		err := w.Append(uint32(i), ev)
		ns := float64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("wal kernel append: %w", err)
		}
		if s := w.Snapshot().Segments; s != segs {
			segs = s
			rot = append(rot, ns/1e6)
		} else {
			plain = append(plain, ns)
		}
	}
	snap := w.Snapshot()
	k.WALAppendNs = Median(plain)
	k.WALRotateMs = Median(rot)
	k.WALBytesPerEv = float64(snap.Bytes) / float64(snap.Records)
	return nil
}

func scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}
