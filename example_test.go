package hepccl_test

import (
	"fmt"
	"log"
	"math"

	hepccl "github.com/wustl-adapt/hepccl"
)

// Label a small pixel image with the paper's 1.5-pass CCL, extract its
// islands, and print centroids: the minimal end-to-end use of the API.
func Example_quickstart() {
	// A 6x6 image like Fig 4: two diagonal-touching blobs plus a singleton.
	img := hepccl.MustParseGrid(`
		##....
		##.#..
		..##..
		......
		....##
		....##
	`)
	fmt.Printf("input (%d lit pixels):\n%s\n\n", img.LitCount(), img)

	for _, conn := range []hepccl.Connectivity{hepccl.FourWay, hepccl.EightWay} {
		res, err := hepccl.Label(img, hepccl.Options{
			Connectivity:  conn,
			CompactLabels: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s CCL: %d islands (from %d provisional groups)\n%s\n",
			conn, res.Islands, res.Groups, res.Labels)

		islands := hepccl.IslandsOf(img, res.Labels)
		for _, c := range hepccl.Centroids(islands) {
			fmt.Printf("  island %d: %d px, energy %d, centroid (%.2f, %.2f)\n",
				c.Label, c.Pixels, c.Sum, c.Row, c.Col)
		}
		fmt.Println()
	}

	// Output:
	// input (11 lit pixels):
	// ##....
	// ##.#..
	// ..##..
	// ......
	// ....##
	// ....##
	//
	// 4-way CCL: 3 islands (from 4 provisional groups)
	// 11....
	// 11.2..
	// ..22..
	// ......
	// ....33
	// ....33
	//   island 1: 4 px, energy 4, centroid (0.50, 0.50)
	//   island 2: 3 px, energy 3, centroid (1.67, 2.67)
	//   island 3: 4 px, energy 4, centroid (4.50, 4.50)
	//
	// 8-way CCL: 2 islands (from 3 provisional groups)
	// 11....
	// 11.1..
	// ..11..
	// ......
	// ....22
	// ....22
	//   island 1: 7 px, energy 7, centroid (1.00, 1.43)
	//   island 2: 4 px, energy 4, centroid (4.50, 4.50)
}

// CTA LST scenario: Cherenkov shower images on the 43×43 camera (≈ the LST's
// 1855 pixels) are cleaned, labeled with the fully pipelined 4-way design,
// and reduced to Hillas parameters, while the synthesis report verifies the
// paper's headline claim that the design sustains CTA's 15k events/s target
// at 100 MHz (§5.5).
func ExampleRunDesign() {
	cam := hepccl.LSTCamera()
	rng := hepccl.NewRNG(2026)

	cfg := hepccl.DesignConfig{
		Rows: cam.Rows, Cols: cam.Cols,
		Connectivity: hepccl.FourWay,
		Stage:        hepccl.StagePipelined,
	}

	fmt.Printf("CTA LST camera: %dx%d pixels, 4-way CCL, pipelined design\n\n", cam.Rows, cam.Cols)

	const events = 5
	var report hepccl.Report
	for ev := 0; ev < events; ev++ {
		sh := cam.TypicalShower(rng)
		img := cam.Shower(sh, rng)

		out, err := hepccl.RunDesign(img, cfg)
		if err != nil {
			log.Fatal(err)
		}
		report = out.Report

		islands := hepccl.IslandsOf(img, out.Labels)
		big := hepccl.LargestIsland(islands)
		fmt.Printf("event %d: %2d islands after cleaning", ev, len(islands))
		if big != nil {
			h := hepccl.HillasOf(*big)
			fmt.Printf("; shower candidate: size %d pe, cog (%.1f, %.1f), length %.2f, width %.2f, psi %.2f rad",
				h.Size, h.CogRow, h.CogCol, h.Length, h.Width, h.PsiRad)
			fmt.Printf(" (true center %.1f, %.1f)", sh.CenterRow, sh.CenterCol)
		}
		fmt.Println()
	}

	fmt.Printf("\nsynthesis report: latency %d cycles @ %.0f MHz -> %.0f events/s\n",
		report.LatencyCycles, report.ClockMHz, report.EventsPerSecond())
	fmt.Printf("resources: BRAM18K %d, FF %d (%d%%), LUT %d (%d%%) on %s\n",
		report.Usage.BRAM18K,
		report.Usage.FF, hepccl.KintexXC7K325T.PctFF(report.Usage.FF),
		report.Usage.LUT, hepccl.KintexXC7K325T.PctLUT(report.Usage.LUT),
		hepccl.KintexXC7K325T.Name)
	if report.EventsPerSecond() >= 15000 {
		fmt.Println("=> meets CTA's 15k events/s real-time target (§5.5)")
	} else {
		fmt.Println("=> MISSES CTA's 15k events/s target")
	}

	// Output:
	// CTA LST camera: 43x43 pixels, 4-way CCL, pipelined design
	//
	// event 0:  4 islands after cleaning; shower candidate: size 474 pe, cog (31.9, 20.5), length 3.52, width 1.20, psi -0.70 rad (true center 31.8, 20.7)
	// event 1:  1 islands after cleaning; shower candidate: size 161 pe, cog (16.2, 25.6), length 1.82, width 1.14, psi -0.22 rad (true center 15.9, 25.8)
	// event 2:  1 islands after cleaning; shower candidate: size 391 pe, cog (13.6, 35.6), length 2.13, width 1.01, psi 1.23 rad (true center 13.6, 35.7)
	// event 3:  3 islands after cleaning; shower candidate: size 497 pe, cog (15.9, 29.1), length 2.62, width 1.88, psi -0.44 rad (true center 15.7, 29.4)
	// event 4:  8 islands after cleaning; shower candidate: size 165 pe, cog (20.6, 8.7), length 2.29, width 0.69, psi -0.85 rad (true center 20.3, 8.9)
	//
	// synthesis report: latency 6575 cycles @ 100 MHz -> 15209 events/s
	// resources: BRAM18K 22, FF 60837 (15%), LUT 23106 (11%) on xc7k325t-2ffg676
	// => meets CTA's 15k events/s real-time target (§5.5)
}

// ADAPT 1D scenario: the original flight pipeline path. Synthetic fiber-
// tracker events are digitized into ALPHA ASIC packets, the pipeline is
// pedestal-calibrated, and each event flows through packet handling →
// pedestal subtraction → photon counting → zero-suppression → merge →
// 1D island detection + centroiding → downlink records.
func ExampleNewPipeline() {
	cfg := hepccl.ADAPTConfig()
	pipe, err := hepccl.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	dig := hepccl.DefaultDigitizer()
	rng := hepccl.NewRNG(7)

	fmt.Printf("ADAPT 1D pipeline: %d ASICs (%d channels)\n", cfg.ASICs, pipe.Channels())
	fmt.Printf("sustained rate: %.0f events/s (bottleneck: %s; paper reports ~300k)\n\n",
		pipe.EventsPerSecond(), pipe.Bottleneck())

	// Pedestal calibration from light-free triggers.
	cal, err := hepccl.GeneratePedestalEvents(32, cfg.ASICs, dig, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := pipe.Calibrate(cal); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pedestals calibrated (channel 0: %d ADC integral)\n\n", pipe.Pedestal(0))

	tracker := hepccl.DefaultTracker()
	tracker.Channels = pipe.Channels()
	tracker.Threshold = 0 // the pipeline applies its own zero-suppression

	for ev := 0; ev < 6; ev++ {
		truth := tracker.Event(rng)
		packets, err := hepccl.GenerateEvent(truth.Values, cfg.ASICs, uint32(ev), uint64(ev)*4096, dig, rng)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pipe.ProcessEvent(packets)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("event %d: %d true interactions -> %d islands\n",
			ev, len(truth.Truth), len(res.OneD.Islands))
		for _, is := range res.OneD.Islands {
			// Match against the closest truth deposit.
			best, bestD := -1, math.Inf(1)
			for i, tr := range truth.Truth {
				if d := math.Abs(tr.Channel - is.Centroid); d < bestD {
					best, bestD = i, d
				}
			}
			fmt.Printf("  channels %3d..%-3d sum %5d centroid %7.2f",
				is.Start, is.End, is.Sum, is.Centroid)
			if best >= 0 && bestD < 3 {
				fmt.Printf("  (truth %.2f, |err| %.2f ch)", truth.Truth[best].Channel, bestD)
			}
			fmt.Println()
		}
		rec := hepccl.RecordOf(res)
		fmt.Printf("  downlink: %d bytes\n", len(rec.Marshal()))
	}

	// Output:
	// ADAPT 1D pipeline: 20 ASICs (320 channels)
	// sustained rate: 297619 events/s (bottleneck: island; paper reports ~300k)
	//
	// pedestals calibrated (channel 0: 3198 ADC integral)
	//
	// event 0: 0 true interactions -> 0 islands
	//   downlink: 8 bytes
	// event 1: 2 true interactions -> 2 islands
	//   channels 119..123 sum   107 centroid  120.72  (truth 120.57, |err| 0.15 ch)
	//   channels 193..197 sum    32 centroid  194.84  (truth 194.63, |err| 0.22 ch)
	//   downlink: 56 bytes
	// event 2: 2 true interactions -> 2 islands
	//   channels 163..166 sum    32 centroid  164.78  (truth 164.64, |err| 0.14 ch)
	//   channels 204..209 sum    76 centroid  206.55  (truth 206.38, |err| 0.17 ch)
	//   downlink: 56 bytes
	// event 3: 1 true interactions -> 1 islands
	//   channels 145..150 sum    75 centroid  147.45  (truth 147.59, |err| 0.13 ch)
	//   downlink: 32 bytes
	// event 4: 1 true interactions -> 1 islands
	//   channels 129..133 sum   113 centroid  130.91  (truth 130.84, |err| 0.07 ch)
	//   downlink: 32 bytes
	// event 5: 2 true interactions -> 3 islands
	//   channels  36..40  sum    39 centroid   37.82  (truth 37.98, |err| 0.16 ch)
	//   channels 180..181 sum    18 centroid  180.61  (truth 181.16, |err| 0.55 ch)
	//   channels 183..183 sum     7 centroid  183.00  (truth 181.16, |err| 1.84 ch)
	//   downlink: 80 bytes
}

// Optimization journey: walks the four HLS optimization stages of §5 on one
// workload, printing how each pragma changes latency and resources (the
// narrative of Tables 1 and 2), then shows the Fig 12 false-dependency fix
// and the §6 corner case on the same designs.
func Example_optimizationJourney() {
	rng := hepccl.NewRNG(99)
	img := hepccl.RandomIslands(8, 10, 4, 1.4, rng)
	fmt.Printf("workload (8x10, %d lit):\n%s\n\n", img.LitCount(), img)

	for _, conn := range []hepccl.Connectivity{hepccl.FourWay, hepccl.EightWay} {
		fmt.Printf("--- %s connectivity ---\n", conn)
		var prev int64
		for _, stage := range hepccl.Stages() {
			out, err := hepccl.RunDesign(img, hepccl.DesignConfig{
				Rows: 8, Cols: 10, Connectivity: conn, Stage: stage,
			})
			if err != nil {
				log.Fatal(err)
			}
			r := out.Report
			fmt.Printf("%-13s latency %5d  BRAM %2d  FF %5d  LUT %5d",
				stage, r.LatencyCycles, r.Usage.BRAM18K, r.Usage.FF, r.Usage.LUT)
			if prev != 0 {
				fmt.Printf("  (%+.1f%% latency)", float64(r.LatencyCycles-prev)/float64(prev)*100)
			}
			fmt.Println()
			prev = r.LatencyCycles
		}
		fmt.Println()
	}

	// Fig 12: the false stream_top dependency.
	base := hepccl.DesignConfig{
		Rows: 8, Cols: 10, Connectivity: hepccl.FourWay, Stage: hepccl.StagePipelined,
	}
	dualCfg := base
	dualCfg.DualWriteStreams = true
	single, err := hepccl.RunDesign(img, base)
	if err != nil {
		log.Fatal(err)
	}
	dual, err := hepccl.RunDesign(img, dualCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 12 false dependency: dual-write II=%d (%d cycles) -> single-write II=%d (%d cycles); labels identical: %v\n\n",
		dual.Report.InnerII, dual.Report.LatencyCycles,
		single.Report.InnerII, single.Report.LatencyCycles,
		dual.Labels.Equal(single.Labels))

	// §6 corner case: published update vs the logical fix, in hardware.
	trigger := hepccl.MustParseGrid("#..#.\n#.##.\n###..")
	cornerCfg := hepccl.DesignConfig{
		Rows: 3, Cols: 5, Connectivity: hepccl.FourWay, Stage: hepccl.StagePipelined,
	}
	pub, err := hepccl.RunDesign(trigger, cornerCfg)
	if err != nil {
		log.Fatal(err)
	}
	cornerCfg.FixedUpdate = true
	fixed, err := hepccl.RunDesign(trigger, cornerCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("§6 corner case (one true component):\n%s\n", trigger)
	fmt.Printf("  published update: %d islands\n%s\n", pub.Islands, pub.Labels)
	fmt.Printf("  fixed update:     %d islands\n%s\n", fixed.Islands, fixed.Labels)

	// Output:
	// workload (8x10, 15 lit):
	// .....#....
	// ........#.
	// ...###.###
	// ...###..#.
	// ...###....
	// ..........
	// ..........
	// ..........
	//
	// --- 4-way connectivity ---
	// Baseline      latency   998  BRAM  4  FF  1076  LUT  2257
	// Bind Storage  latency  1158  BRAM  7  FF  1014  LUT  2303  (+16.0% latency)
	// Unrolled      latency  1018  BRAM  5  FF  1068  LUT  2629  (-12.1% latency)
	// Pipelined     latency   340  BRAM  5  FF  4229  LUT  4096  (-66.6% latency)
	//
	// --- 8-way connectivity ---
	// Baseline      latency  1398  BRAM  4  FF  1196  LUT  2746
	// Bind Storage  latency  1718  BRAM  7  FF  1200  LUT  2863  (+22.9% latency)
	// Unrolled      latency  1578  BRAM  5  FF  1254  LUT  3189  (-8.1% latency)
	// Pipelined     latency   485  BRAM  5  FF  7041  LUT  6583  (-69.3% latency)
	//
	// Fig 12 false dependency: dual-write II=2 (419 cycles) -> single-write II=1 (340 cycles); labels identical: true
	//
	// §6 corner case (one true component):
	// #..#.
	// #.##.
	// ###..
	//   published update: 2 islands
	// 1..2.
	// 1.12.
	// 111..
	//   fixed update:     1 islands
	// 1..1.
	// 1.11.
	// 111..
}

// Muon calibration scenario: local muons draw thin Cherenkov rings in the
// camera, the most concave islands a real IACT sees. The example labels ring
// images, fits circles (Kåsa) to recover the ring radius, and shows why the
// corrected merge-table update matters: the published update splits a
// substantial fraction of rings into multiple islands (EXPERIMENTS.md E13),
// which would corrupt the radius calibration.
func ExampleFitRing() {
	cam := hepccl.LSTCamera()
	rng := hepccl.NewRNG(4242)

	const events = 30
	var fitted, splitByPaperMode int
	var radErrSum float64

	for ev := 0; ev < events; ev++ {
		truth := cam.TypicalMuonRing(rng)
		img := cam.Ring(truth, rng)

		// Published update (the shipping hardware behaviour).
		paper, err := hepccl.Label(img, hepccl.Options{
			Connectivity:  hepccl.FourWay,
			Mode:          hepccl.ModePaper,
			MergeTableCap: hepccl.MergeTableSize(cam.Rows, cam.Cols, hepccl.FourWay),
		})
		if err != nil {
			log.Fatal(err)
		}
		// Corrected update.
		fixed, err := hepccl.Label(img, hepccl.Options{
			Connectivity: hepccl.FourWay,
			Mode:         hepccl.ModeFixed,
		})
		if err != nil {
			log.Fatal(err)
		}
		if paper.Islands > fixed.Islands {
			splitByPaperMode++
		}

		islands := hepccl.IslandsOf(img, fixed.Labels)
		big := hepccl.LargestIsland(islands)
		// Quality cut, as real muon calibration applies: the ring candidate
		// must cover a reasonable fraction of the expected circumference,
		// or the arc fit biases the radius.
		minPixels := int(0.35 * 2 * math.Pi * truth.Radius)
		if big == nil || big.Size() < minPixels {
			continue
		}
		ring, err := hepccl.FitRing(*big)
		if err != nil || ring.RMS > 1.0 {
			continue
		}
		fitted++
		radErr := math.Abs(ring.Radius - truth.Radius)
		radErrSum += radErr
		if ev < 8 {
			fmt.Printf("event %2d: true R=%5.2f  fitted R=%5.2f (center %.1f,%.1f; rms %.2f)  islands paper/fixed: %d/%d\n",
				ev, truth.Radius, ring.Radius, ring.CenterRow, ring.CenterCol, ring.RMS,
				paper.Islands, fixed.Islands)
		}
	}

	fmt.Printf("\nfitted %d/%d rings; mean |radius error| %.2f px\n",
		fitted, events, radErrSum/float64(fitted))
	fmt.Printf("published update split %d/%d ring events into extra islands\n", splitByPaperMode, events)
	fmt.Println("=> thin concave rings routinely trigger the §6 corner case; the corrected")
	fmt.Println("   update (ModeFixed) keeps each ring one island, preserving the calibration.")

	// Output:
	// event  0: true R=10.18  fitted R= 7.97 (center 22.1,18.3; rms 0.75)  islands paper/fixed: 15/15
	// event  2: true R=14.85  fitted R=14.92 (center 23.4,23.1; rms 0.65)  islands paper/fixed: 3/1
	// event  3: true R=12.78  fitted R=12.87 (center 21.5,20.4; rms 0.65)  islands paper/fixed: 4/3
	// event  4: true R= 7.30  fitted R= 7.47 (center 21.8,22.7; rms 0.88)  islands paper/fixed: 7/6
	// event  6: true R=11.66  fitted R=11.74 (center 22.1,22.1; rms 0.56)  islands paper/fixed: 9/9
	//
	// fitted 24/30 rings; mean |radius error| 0.69 px
	// published update split 14/30 ring events into extra islands
	// => thin concave rings routinely trigger the §6 corner case; the corrected
	//    update (ModeFixed) keeps each ring one island, preserving the calibration.
}

// ADAPT station scenario: "ADAPT's 2D spatial reconstruction uses
// perpendicular 1D arrays of optical fibers" (§2). Two pipelines read the X
// and Y fiber layers of one tracker station; the event builder pairs their
// 1D islands by energy rank into 2D interaction points and compares them to
// the generated ground truth.
func ExampleNewInstrument() {
	cfg := hepccl.ADAPTConfig()
	cfg.ASICs = 8 // 128 channels per layer
	station, err := hepccl.NewInstrument(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tracker station: 2 layers × %d channels, %.0f events/s\n\n",
		station.X.Channels(), station.EventsPerSecond())

	tracker := hepccl.DefaultTracker()
	tracker.Channels = station.X.Channels()
	tracker.MeanInteractions = 1.5
	tracker.Threshold = 0
	tracker.PEMin = 40
	dig := hepccl.DefaultDigitizer()
	dig.NoiseRMS = 0
	rng := hepccl.NewRNG(1234)

	var matched, truthPoints int
	for ev := 0; ev < 10; ev++ {
		xy := tracker.XYEvent(rng)
		xPackets, err := hepccl.GenerateEvent(xy.X, cfg.ASICs, uint32(ev), 0, dig, nil)
		if err != nil {
			log.Fatal(err)
		}
		yPackets, err := hepccl.GenerateEvent(xy.Y, cfg.ASICs, uint32(ev), 0, dig, nil)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := station.ProcessEvent(xPackets, yPackets)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("event %d: %d truth interactions -> %d points (unpaired X/Y: %d/%d)\n",
			ev, len(xy.Truth), len(rec.Points), rec.UnpairedX, rec.UnpairedY)
		for _, p := range rec.Points {
			best := math.Inf(1)
			for _, tr := range xy.Truth {
				if d := math.Hypot(p.Row-tr.Row, p.Col-tr.Col); d < best {
					best = d
				}
			}
			fmt.Printf("  point (%6.2f, %6.2f)  E %4d/%-4d  balance %.2f  |truth dist| %.2f\n",
				p.Row, p.Col, p.EnergyX, p.EnergyY, p.Balance, best)
			if best < 1.5 {
				matched++
			}
		}
		truthPoints += len(xy.Truth)
	}
	fmt.Printf("\n%d/%d reconstructed points within 1.5 channels of a truth interaction\n",
		matched, truthPoints)
	fmt.Println("(multi-interaction events show the classic XY-readout ghost ambiguity —")
	fmt.Println(" the energy-balance column is the discriminator real event builders cut on)")

	// Output:
	// tracker station: 2 layers × 128 channels, 694444 events/s
	//
	// event 0: 2 truth interactions -> 2 points (unpaired X/Y: 0/0)
	//   point ( 38.57,  91.98)  E   61/67    balance 0.91  |truth dist| 0.36
	//   point ( 46.52, 102.27)  E   15/27    balance 0.56  |truth dist| 0.46
	// event 1: 2 truth interactions -> 2 points (unpaired X/Y: 0/0)
	//   point (  3.06,  34.02)  E   49/49    balance 1.00  |truth dist| 0.11
	//   point ( 46.48, 102.46)  E   35/31    balance 0.89  |truth dist| 0.15
	// event 2: 1 truth interactions -> 1 points (unpaired X/Y: 0/0)
	//   point ( 54.06, 123.67)  E   36/48    balance 0.75  |truth dist| 0.28
	// event 3: 1 truth interactions -> 1 points (unpaired X/Y: 0/0)
	//   point ( 96.43,  88.38)  E   40/21    balance 0.53  |truth dist| 0.25
	// event 4: 3 truth interactions -> 3 points (unpaired X/Y: 0/0)
	//   point (120.02, 121.82)  E   67/58    balance 0.87  |truth dist| 59.99
	//   point ( 47.36,  61.83)  E   47/56    balance 0.84  |truth dist| 34.27
	//   point ( 59.10,  28.09)  E   44/52    balance 0.85  |truth dist| 11.88
	// event 5: 2 truth interactions -> 2 points (unpaired X/Y: 0/0)
	//   point ( 50.39,  98.30)  E   23/31    balance 0.74  |truth dist| 0.23
	//   point ( 15.47,  79.00)  E    7/19    balance 0.37  |truth dist| 1.02
	// event 6: 5 truth interactions -> 5 points (unpaired X/Y: 0/0)
	//   point ( 42.76,  35.44)  E   71/68    balance 0.96  |truth dist| 0.02
	//   point ( 17.43,  71.42)  E   66/42    balance 0.64  |truth dist| 0.40
	//   point ( 22.59,  88.45)  E   40/37    balance 0.93  |truth dist| 10.27
	//   point ( 12.20, 101.87)  E   23/35    balance 0.66  |truth dist| 10.56
	//   point (  0.92,  25.31)  E   16/26    balance 0.62  |truth dist| 0.63
	// event 7: 0 truth interactions -> 0 points (unpaired X/Y: 0/0)
	// event 8: 2 truth interactions -> 2 points (unpaired X/Y: 0/0)
	//   point ( 49.89,  40.82)  E   34/35    balance 0.97  |truth dist| 0.14
	//   point ( 96.00,  61.88)  E   25/33    balance 0.76  |truth dist| 0.11
	// event 9: 0 truth interactions -> 0 points (unpaired X/Y: 0/0)
	//
	// 13/18 reconstructed points within 1.5 channels of a truth interaction
	// (multi-interaction events show the classic XY-readout ghost ambiguity —
	//  the energy-balance column is the discriminator real event builders cut on)
}
