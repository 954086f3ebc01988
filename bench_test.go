package hepccl_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus ablations for the design choices the study isolates.
//
// Hardware metrics (cycles, BRAM/FF/LUT) are reported via b.ReportMetric as
// model outputs — they are deterministic properties of each configuration —
// while ns/op measures this reproduction's simulation cost on the host.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

// workload8x10 returns the Table 1/2 array-size workload.
func workload8x10() *grid.Grid {
	return detector.RandomIslands(8, 10, 4, 1.4, detector.NewRNG(42))
}

func workload(rows, cols int) *grid.Grid {
	return detector.RandomIslands(rows, cols, max(2, rows*cols/100), 1.6, detector.NewRNG(42))
}

// benchStageStudy runs one Table 1/2 row: a design stage on the 8×10 array.
func benchStageStudy(b *testing.B, conn grid.Connectivity) {
	g := workload8x10()
	for _, stage := range design.Stages() {
		stage := stage // explicit capture: b.Run closures outlive the iteration
		b.Run(stage.String(), func(b *testing.B) {
			cfg := design.Config{Rows: 8, Cols: 10, Connectivity: conn, Stage: stage}
			var out *design.Output
			var err error
			for i := 0; i < b.N; i++ {
				out, err = design.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
			b.ReportMetric(float64(out.Report.Usage.BRAM18K), "hw-BRAM")
			b.ReportMetric(float64(out.Report.Usage.FF), "hw-FF")
			b.ReportMetric(float64(out.Report.Usage.LUT), "hw-LUT")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: optimization stages, 8×10, 4-way.
func BenchmarkTable1(b *testing.B) { benchStageStudy(b, grid.FourWay) }

// BenchmarkTable2 regenerates Table 2: optimization stages, 8×10, 8-way.
func BenchmarkTable2(b *testing.B) { benchStageStudy(b, grid.EightWay) }

// benchScaling runs one Table 3/4 row: the pipelined design at one size.
func benchScaling(b *testing.B, conn grid.Connectivity) {
	for _, sz := range [][2]int{{8, 10}, {16, 16}, {24, 24}, {32, 32}, {43, 43}, {64, 64}} {
		rows, cols := sz[0], sz[1] // explicit capture for the b.Run closure
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			g := workload(rows, cols)
			cfg := design.Config{Rows: rows, Cols: cols, Connectivity: conn, Stage: design.StagePipelined}
			var out *design.Output
			var err error
			for i := 0; i < b.N; i++ {
				out, err = design.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
			b.ReportMetric(float64(out.Report.Usage.BRAM18K), "hw-BRAM")
			b.ReportMetric(float64(out.Report.Usage.FF), "hw-FF")
			b.ReportMetric(float64(out.Report.Usage.LUT), "hw-LUT")
			b.ReportMetric(out.Report.EventsPerSecond(), "hw-events/s")
		})
	}
}

// BenchmarkTable3 regenerates Table 3: scalability, 4-way pipelined.
func BenchmarkTable3(b *testing.B) { benchScaling(b, grid.FourWay) }

// BenchmarkTable4 regenerates Table 4: scalability, 8-way pipelined.
func BenchmarkTable4(b *testing.B) { benchScaling(b, grid.EightWay) }

// BenchmarkFig10 regenerates the Fig 10 latency series (both connectivities).
// The hw-cycles metric across sub-benchmarks is the plotted series.
func BenchmarkFig10(b *testing.B) {
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		for _, sz := range [][2]int{{8, 10}, {16, 16}, {24, 24}, {32, 32}, {43, 43}, {64, 64}} {
			conn, sz := conn, sz // explicit capture for the b.Run closure
			b.Run(fmt.Sprintf("%s/%dx%d", conn, sz[0], sz[1]), func(b *testing.B) {
				var lat int64
				for i := 0; i < b.N; i++ {
					lat = design.Latency(design.StagePipelined, conn, sz[0], sz[1])
				}
				b.ReportMetric(float64(lat), "hw-cycles")
			})
		}
	}
}

// BenchmarkFig11 regenerates the Fig 11 FF/LUT series.
func BenchmarkFig11(b *testing.B) {
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		for _, sz := range [][2]int{{8, 10}, {16, 16}, {24, 24}, {32, 32}, {43, 43}, {64, 64}} {
			conn, sz := conn, sz // explicit capture for the b.Run closure
			b.Run(fmt.Sprintf("%s/%dx%d", conn, sz[0], sz[1]), func(b *testing.B) {
				var ff, lut int
				for i := 0; i < b.N; i++ {
					use := design.Resources(design.StagePipelined, conn, sz[0], sz[1])
					ff, lut = use.FF, use.LUT
				}
				b.ReportMetric(float64(ff), "hw-FF")
				b.ReportMetric(float64(lut), "hw-LUT")
			})
		}
	}
}

// BenchmarkEventRate43x43 regenerates the §5.5 headline claim (E7): the
// 43×43 4-way pipelined design at 100 MHz versus CTA's 15k events/s target.
func BenchmarkEventRate43x43(b *testing.B) {
	cam := detector.LSTCamera()
	rng := detector.NewRNG(7)
	g := cam.Shower(cam.TypicalShower(rng), rng)
	cfg := design.Config{Rows: 43, Cols: 43, Connectivity: grid.FourWay, Stage: design.StagePipelined}
	var out *design.Output
	var err error
	for i := 0; i < b.N; i++ {
		out, err = design.Run(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(out.Report.EventsPerSecond(), "hw-events/s")
	b.ReportMetric(15000, "hw-target")
}

// BenchmarkFalseDependency regenerates E8 (Fig 12): dual-write vs
// single-write stream_top patterns on the pipelined 4-way design.
func BenchmarkFalseDependency(b *testing.B) {
	g := workload8x10()
	for _, dual := range []bool{false, true} {
		dual := dual // explicit capture for the b.Run closure
		name := "single-write"
		if dual {
			name = "dual-write"
		}
		b.Run(name, func(b *testing.B) {
			cfg := design.Config{
				Rows: 8, Cols: 10, Connectivity: grid.FourWay,
				Stage: design.StagePipelined, DualWriteStreams: dual,
			}
			var out *design.Output
			var err error
			for i := 0; i < b.N; i++ {
				out, err = design.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
			b.ReportMetric(float64(out.Report.InnerII), "hw-innerII")
		})
	}
}

// BenchmarkAblationStorage isolates the bind_storage pragma (§5.2): the
// merge table in registers vs dual-port BRAM, before pipelining.
func BenchmarkAblationStorage(b *testing.B) {
	g := workload8x10()
	for _, stage := range []design.Stage{design.StageBaseline, design.StageBindStorage} {
		stage := stage // explicit capture for the b.Run closure
		b.Run(stage.String(), func(b *testing.B) {
			cfg := design.Config{Rows: 8, Cols: 10, Connectivity: grid.FourWay, Stage: stage}
			var out *design.Output
			var err error
			for i := 0; i < b.N; i++ {
				out, err = design.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
			b.ReportMetric(float64(out.Report.Usage.FF), "hw-FF")
		})
	}
}

// BenchmarkAblationResolver compares the published min-update against the
// §6 fixed union update on merge-chain-heavy spirals (software cost; both
// schedules are identical in hardware).
func BenchmarkAblationResolver(b *testing.B) {
	g := detector.Spiral(64, 64)
	for _, mode := range []ccl.Mode{ccl.ModePaper, ccl.ModeFixed} {
		mode := mode // explicit capture for the b.Run closure
		b.Run(mode.String(), func(b *testing.B) {
			opt := ccl.Options{Connectivity: grid.FourWay, Mode: mode}
			for i := 0; i < b.N; i++ {
				if _, err := ccl.Label(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMergeTableSizing compares the paper's ⌈R/2⌉·⌈C/2⌉ sizing
// with the 4-way-safe ⌈R·C/2⌉ sizing (E9): the resolve loop trip count is
// the latency cost of safety.
func BenchmarkAblationMergeTableSizing(b *testing.B) {
	g := workload(43, 43)
	for _, safe := range []bool{false, true} {
		safe := safe // explicit capture for the b.Run closure
		name := "paper-sizing"
		capacity := 0
		if safe {
			name = "safe-sizing"
			capacity = ccl.SizeFor(43, 43, grid.FourWay)
		}
		b.Run(name, func(b *testing.B) {
			cfg := design.Config{
				Rows: 43, Cols: 43, Connectivity: grid.FourWay,
				Stage: design.StagePipelined, MergeTableCap: capacity,
			}
			var out *design.Output
			var err error
			for i := 0; i < b.N; i++ {
				out, err = design.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
		})
	}
}

// BenchmarkLabelers compares the software labelers — the flood-fill golden
// model, the flat-table scan behind E11's single-pass variant, and this
// paper's 1.5-pass — on the LST-size array (pure Go throughput, not hardware
// cycles).
func BenchmarkLabelers(b *testing.B) {
	g := workload(43, 43)
	b.Run("floodfill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (labeling.FloodFill{}).Label(g, grid.FourWay); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := labeling.FlatTable(g, grid.FourWay); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("1.5-pass", func(b *testing.B) {
		opt := ccl.Options{Connectivity: grid.FourWay}
		for i := 0; i < b.N; i++ {
			if _, err := ccl.Label(g, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineADAPT measures the full 1D pipeline end to end (packets
// through downlink records) and reports the modeled hardware event rate.
func BenchmarkPipelineADAPT(b *testing.B) {
	cfg := adapt.DefaultADAPT()
	p, err := adapt.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := detector.NewRNG(3)
	dig := detector.DefaultDigitizer()
	tracker := detector.DefaultTracker()
	tracker.Channels = p.Channels()
	packets, err := adapt.GenerateEvent(tracker.Event(rng).Values, cfg.ASICs, 1, 0, dig, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.ProcessEvent(packets)
		if err != nil {
			b.Fatal(err)
		}
		_ = adapt.RecordOf(res)
	}
	b.ReportMetric(p.EventsPerSecond(), "hw-events/s")
}

// BenchmarkPipelineCTA measures the 2D CTA pipeline end to end.
func BenchmarkPipelineCTA(b *testing.B) {
	cfg := adapt.DefaultCTA()
	p, err := adapt.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := detector.NewRNG(4)
	cam := detector.LSTCamera()
	cam.CleaningThresholdPE = 0
	img := cam.Shower(cam.TypicalShower(rng), rng)
	flat := make([]grid.Value, p.Channels())
	copy(flat, img.Flat())
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	packets, err := adapt.GenerateEvent(flat, cfg.ASICs, 1, 0, dig, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ProcessEvent(packets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.EventsPerSecond(), "hw-events/s")
}

// BenchmarkAblationPassStrategy regenerates E11: the §6 future-work
// pass-structure comparison (1.5-pass vs two-pass vs single-pass) at the
// LST size.
func BenchmarkAblationPassStrategy(b *testing.B) {
	g := workload(43, 43)
	for _, s := range []design.PassStrategy{design.PassOneAndHalf, design.PassTwo, design.PassSingle} {
		s := s // explicit capture for the b.Run closure
		b.Run(s.String(), func(b *testing.B) {
			cfg := design.VariantConfig{Rows: 43, Cols: 43, Connectivity: grid.FourWay, Strategy: s}
			var out *design.Output
			var err error
			for i := 0; i < b.N; i++ {
				out, err = design.RunVariant(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
			b.ReportMetric(float64(out.Report.Usage.FF), "hw-FF")
		})
	}
}

// BenchmarkAblationOutputLanes regenerates the §6 wide-output enhancement:
// emitting 1..16 labels per cycle at 64×64, where the output loop is "a
// major latency contributor".
func BenchmarkAblationOutputLanes(b *testing.B) {
	for _, lanes := range []int{1, 2, 4, 8, 16} {
		lanes := lanes // explicit capture for the b.Run closure
		b.Run(fmt.Sprintf("lanes-%d", lanes), func(b *testing.B) {
			cfg := design.VariantConfig{
				Rows: 64, Cols: 64, Connectivity: grid.FourWay,
				Strategy: design.PassOneAndHalf, OutputLanes: lanes,
			}
			var lat int64
			for i := 0; i < b.N; i++ {
				lat = design.VariantLatency(cfg)
			}
			b.ReportMetric(float64(lat), "hw-cycles")
		})
	}
}

// BenchmarkTiled regenerates E12: hierarchical labeling across image sizes
// with a constant 8×8 tile (software cost; the hw win is the bounded
// per-tile merge table reported as hw-tile-MT).
func BenchmarkTiled(b *testing.B) {
	for _, side := range []int{16, 32, 64, 128} {
		side := side // explicit capture for the b.Run closure
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			g := detector.RandomIslands(side, side, side*side/64, 1.6, detector.NewRNG(11))
			var res *ccl.TiledResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = ccl.LabelTiled(g, ccl.TiledOptions{TileRows: 8, TileCols: 8})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.MaxTileGroups), "hw-tile-MT")
			b.ReportMetric(float64(ccl.SizeForPaper(side, side)), "hw-mono-MT")
		})
	}
}

// BenchmarkPacketStream measures the packet-stream serializer/parser the
// readout link uses.
func BenchmarkPacketStream(b *testing.B) {
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	packets, err := adapt.GenerateEvent(nil, 20, 1, 0, dig, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	sw := adapt.NewStreamWriter(&buf)
	if err := sw.WriteEvent(packets); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := adapt.NewStreamReader(bytes.NewReader(wire))
		if _, err := sr.ReadEventInto(nil, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCentroid2D measures the streaming hardware centroid stage (Fig
// 3's centroiding half) at the LST size.
func BenchmarkCentroid2D(b *testing.B) {
	cam := detector.LSTCamera()
	rng := detector.NewRNG(21)
	g := cam.Shower(cam.TypicalShower(rng), rng)
	res, err := ccl.Label(g, ccl.Options{Connectivity: grid.FourWay, CompactLabels: true})
	if err != nil {
		b.Fatal(err)
	}
	var out *design.CentroidOutput
	for i := 0; i < b.N; i++ {
		out, err = design.RunCentroid2D(g, res.Labels, ccl.SizeForPaper(43, 43))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(out.Report.LatencyCycles), "hw-cycles")
}

// BenchmarkStation measures the two-layer station end to end (E-builder
// included).
func BenchmarkStation(b *testing.B) {
	cfg := adapt.DefaultADAPT()
	cfg.ASICs = 8
	station, err := adapt.NewInstrument(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tracker := detector.DefaultTracker()
	tracker.Channels = station.X.Channels()
	tracker.Threshold = 0
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	rng := detector.NewRNG(31)
	xy := tracker.XYEvent(rng)
	xp, err := adapt.GenerateEvent(xy.X, cfg.ASICs, 1, 0, dig, nil)
	if err != nil {
		b.Fatal(err)
	}
	yp, err := adapt.GenerateEvent(xy.Y, cfg.ASICs, 1, 0, dig, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := station.ProcessEvent(xp, yp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(station.EventsPerSecond(), "hw-events/s")
}

// serveTruth synthesizes shower-like image content at ~occ lit fraction:
// compact blobs of deposited charge, which is what the camera actually
// images (and what the run-based engine is shaped for) — Cherenkov showers
// are spatially clustered, not uniform salt-and-pepper scatter.
func serveTruth(rows, cols, channels int, occ float64, rng *detector.RNG) []grid.Value {
	px := rows * cols
	truth := make([]grid.Value, channels)
	target := int(float64(px)*occ + 0.5)
	lit := 0
	for tries := 0; lit < target && tries < 64*px; tries++ {
		cr, cc := rng.Intn(rows), rng.Intn(cols)
		rad := 1 + rng.Intn(2)
		for dr := -rad; dr <= rad; dr++ {
			for dc := -rad; dc <= rad; dc++ {
				if dr*dr+dc*dc > rad*rad {
					continue
				}
				r, c := cr+dr, cc+dc
				if r < 0 || r >= rows || c < 0 || c >= cols {
					continue
				}
				if i := r*cols + c; truth[i] == 0 && lit < target {
					truth[i] = grid.Value(3 + rng.Intn(30))
					lit++
				}
			}
		}
	}
	return truth
}

// serveWorkload builds a rows×cols serving pipeline and one pre-digitized
// noise-free event at ~occ lit occupancy.
func serveWorkload(b *testing.B, rows, cols int, occ float64) (*adapt.Pipeline, []adapt.Packet) {
	b.Helper()
	px := rows * cols
	cfg := adapt.Config{
		ASICs:             (px + adapt.ChannelsPerASIC - 1) / adapt.ChannelsPerASIC,
		SamplesPerChannel: 4,
		PedestalPerSample: 200,
		GainADC:           40,
		ThresholdPE:       2,
		Detection: design.TopConfig{
			TwoDimension: true,
			TwoD: design.Config{
				Rows: rows, Cols: cols,
				Connectivity: grid.FourWay,
				Stage:        design.StagePipelined,
			},
		},
	}
	p, err := adapt.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := detector.NewRNG(42)
	truth := serveTruth(rows, cols, p.Channels(), occ, rng)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	dig.NoiseRMS = 0 // keep the lit set exactly at the target occupancy
	packets, err := adapt.GenerateEvent(truth, cfg.ASICs, 1, 0, dig, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p, packets
}

// BenchmarkServeEvent sweeps the serving fast path (the run-based labeling
// engine, Config.Serve = ServeRun) across array sizes and occupancies; run
// with -benchmem to confirm the 0 allocs/op steady state.
func BenchmarkServeEvent(b *testing.B) {
	sizes := [][2]int{{8, 10}, {16, 16}, {32, 32}, {43, 43}, {64, 64}}
	occs := []float64{0.005, 0.02, 0.10, 0.50}
	for _, sz := range sizes {
		for _, occ := range occs {
			sz, occ := sz, occ // explicit capture
			name := fmt.Sprintf("%dx%d/occ=%g%%/%s", sz[0], sz[1], occ*100, adapt.ServeRun)
			b.Run(name, func(b *testing.B) {
				p, packets := serveWorkload(b, sz[0], sz[1], occ)
				var rec adapt.EventRecord
				if err := p.ServeEvent(packets, &rec); err != nil {
					b.Fatal(err) // warmup: reach the zero-alloc steady state
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.ServeEvent(packets, &rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServeEventFrame runs the full serving path at frame geometries far
// past any paper camera, on the one run backend every 2D frame serves on. The
// "/run" leg name puts it under the same CI 0-allocs gate as
// BenchmarkServeEvent's. End-to-end cost includes the O(channels) integration
// sweep, of which labeling is a small share.
func BenchmarkServeEventFrame(b *testing.B) {
	for _, size := range []int{256, 512} {
		b.Run(fmt.Sprintf("%dx%d/occ=2%%/%s", size, size, adapt.ServeRun), func(b *testing.B) {
			p, packets := serveWorkload(b, size, size, 0.02)
			var rec adapt.EventRecord
			if err := p.ServeEvent(packets, &rec); err != nil {
				b.Fatal(err) // warmup: reach the zero-alloc steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.ServeEvent(packets, &rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rec.Islands)), "islands")
		})
	}
}

// BenchmarkDeadtime measures the E14 trigger simulation itself.
func BenchmarkDeadtime(b *testing.B) {
	p, err := adapt.New(adapt.DefaultCTA())
	if err != nil {
		b.Fatal(err)
	}
	var res adapt.DeadtimeResult
	for i := 0; i < b.N; i++ {
		res, err = p.SimulateTrigger(adapt.TriggerConfig{
			RateHz: 15000, FIFODepth: 16, Events: 10000, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LossFraction*100, "hw-loss-pct")
}
