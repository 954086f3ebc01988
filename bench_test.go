package hepccl_test

// Benchmarks of this reproduction's software cost (labelers, pipeline,
// packet stream, serving fast path), plus the hardware-model metrics
// (hw-*, via b.ReportMetric) that other documents cite from here: the §5.5
// event rate, the E9 merge-table sizing cost and the §6 output lanes. The
// paper's tables and figures come from `go run ./cmd/experiments`.
//
// Run them all with:
//
//	go test -run '^$' -bench=. -benchmem .

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

func workload(rows, cols int) *grid.Grid {
	return detector.RandomIslands(rows, cols, max(2, rows*cols/100), 1.6, detector.NewRNG(42))
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
