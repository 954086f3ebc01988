package adapt

import (
	"bytes"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// FuzzRunCCLvsPixel is the differential check behind the run-based serving
// backend: for a fuzzer-chosen geometry, connectivity, and photo-electron
// image, the same digitized event is served through the run arena and the
// flood-fill oracle backend (ServePixel), and both are compared — field by field —
// against an independently computed merged image labeled by the ccl package
// (ModeFixed, compact labels). All three must agree on the partition, pixel
// counts, sums, and Q16.16 centroids.
//
// Geometry spans 1–48 rows by 1–70 columns: single pixels and single rows,
// the 43×43 camera, and rows wider than one 64-bit word.
func FuzzRunCCLvsPixel(f *testing.F) {
	f.Add(uint64(1), uint8(43), uint8(43), false, []byte{0, 5, 5, 0, 9})
	f.Add(uint64(2), uint8(8), uint8(10), true, []byte{3, 3, 3, 3, 3, 3, 3})
	f.Add(uint64(3), uint8(5), uint8(70), false, []byte{40, 0, 40, 0, 40})
	f.Add(uint64(4), uint8(1), uint8(64), true, []byte{7})
	f.Add(uint64(5), uint8(16), uint8(16), true, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, rowsB, colsB uint8, eight bool, pe []byte) {
		rows := 1 + int(rowsB%48)
		cols := 1 + int(colsB%70)
		px := rows * cols
		conn := grid.FourWay
		if eight {
			conn = grid.EightWay
		}
		cfg := Config{
			ASICs:             (px + ChannelsPerASIC - 1) / ChannelsPerASIC,
			SamplesPerChannel: 4,
			PedestalPerSample: 200,
			GainADC:           40,
			ThresholdPE:       2,
			Detection: design.TopConfig{
				TwoDimension: true,
				TwoD: design.Config{
					Rows: rows, Cols: cols,
					Connectivity: conn,
					Stage:        design.StagePipelined,
				},
			},
		}

		// Truth image from the fuzz payload: PE amplitudes 0..41, so the
		// population straddles the ThresholdPE=2 suppression cut.
		truth := make([]grid.Value, cfg.ASICs*ChannelsPerASIC)
		for i := 0; i < px; i++ {
			if len(pe) > 0 {
				truth[i] = grid.Value(pe[i%len(pe)] % 42)
			}
		}
		rng := detector.NewRNG(seed | 1)
		dig := detector.DefaultDigitizer()
		dig.Samples = cfg.SamplesPerChannel
		packets, err := GenerateEvent(truth, cfg.ASICs, 7, 0, dig, rng)
		if err != nil {
			t.Fatal(err)
		}

		runCfg, pixCfg := cfg, cfg
		runCfg.Serve = ServeRun
		pixCfg.Serve = ServePixel
		pRun, err := New(runCfg)
		if err != nil {
			t.Fatal(err)
		}
		pPix, err := New(pixCfg)
		if err != nil {
			t.Fatal(err)
		}
		if pRun.runBatch == nil || pPix.runBatch != nil {
			t.Fatal("backend selection did not take effect")
		}
		var recRun, recPix EventRecord
		if err := pRun.ServeEvent(packets, &recRun); err != nil {
			t.Fatal(err)
		}
		if err := pPix.ServeEvent(packets, &recPix); err != nil {
			t.Fatal(err)
		}
		if len(recRun.Islands) != len(recPix.Islands) {
			t.Fatalf("run found %d islands, pixel %d", len(recRun.Islands), len(recPix.Islands))
		}
		// Both backends number islands 1..K in raster order of first
		// appearance, so records must match positionally and bit-exactly.
		for i := range recRun.Islands {
			if recRun.Islands[i] != recPix.Islands[i] {
				t.Fatalf("island %d: run %+v != pixel %+v", i, recRun.Islands[i], recPix.Islands[i])
			}
		}

		// Independent reference: rebuild the merged image from the packets
		// with the textbook per-channel math (integrate, subtract pedestal,
		// rounded photon count, suppress at ThresholdPE), then label it with
		// the ccl package in corrected-resolver mode.
		merged := make([]grid.Value, px)
		for pi := range packets {
			base := int(packets[pi].ASIC) * ChannelsPerASIC
			ints := packets[pi].Integrals()
			for ch, raw := range ints {
				fl := base + ch
				if fl >= px {
					continue
				}
				net := raw - cfg.PedestalPerSample*int64(cfg.SamplesPerChannel)
				if pc := PhotonCount(net, cfg.GainADC); pc > cfg.ThresholdPE {
					merged[fl] = pc
				}
			}
		}
		g, err := grid.FromFlat(rows, cols, merged)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ccl.Label(g, ccl.Options{
			Connectivity:  conn,
			Mode:          ccl.ModeFixed,
			CompactLabels: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := ccl.Islands(g, res.Labels)
		if len(ref) != len(recRun.Islands) {
			t.Fatalf("ccl.Label found %d islands, serving path %d", len(ref), len(recRun.Islands))
		}
		for i := range ref {
			var sum, rowM, colM int64
			for _, p := range ref[i].Pixels {
				v := int64(p.Value)
				sum += v
				rowM += int64(p.Row) * v
				colM += int64(p.Col) * v
			}
			got := recRun.Islands[i]
			if int(got.Label) != int(ref[i].Label) || int(got.Pixels) != len(ref[i].Pixels) || got.Sum != sum {
				t.Fatalf("island %d: serve label=%d pixels=%d sum=%d, ccl label=%d pixels=%d sum=%d",
					i, got.Label, got.Pixels, got.Sum, ref[i].Label, len(ref[i].Pixels), ref[i].Sum)
			}
			if got.RowQ16 != q16Ratio(rowM, sum) || got.ColQ16 != q16Ratio(colM, sum) {
				t.Fatalf("island %d: centroid (%d,%d) != reference (%d,%d)",
					i, got.RowQ16, got.ColQ16, q16Ratio(rowM, sum), q16Ratio(colM, sum))
			}
		}
	})
}

// FuzzBatchVsSingle is the differential check behind batched serving: a
// fuzzer-chosen batch of events — geometry, connectivity,
// sample depth, batch size, and payload all fuzzed — is served through
// ServeBatch and compared byte-for-byte (marshalled record bytes) against
// ServeEvent on the run backend and against the per-pixel reference backend,
// event by event. Fuzzer-chosen bits also shuffle some events' packet order —
// valid, and sorted back into raster order by the reference integration —
// and may truncate the first event, checking error parity between the batched
// and single paths. rows = cols = 255 selects a 129×128 frame, larger than
// any paper geometry: eight striped events there are 66 k runs through one
// reused arena.
func FuzzBatchVsSingle(f *testing.F) {
	f.Add(uint64(1), uint8(43), uint8(43), false, uint8(4), uint8(3), uint8(0), []byte{0, 5, 5, 0, 9})
	f.Add(uint64(2), uint8(8), uint8(10), true, uint8(4), uint8(5), uint8(2), []byte{3, 3, 3, 3})
	f.Add(uint64(3), uint8(5), uint8(70), false, uint8(6), uint8(2), uint8(5), []byte{40, 0, 40})
	f.Add(uint64(4), uint8(16), uint8(16), true, uint8(4), uint8(7), uint8(255), []byte{7})
	f.Add(uint64(5), uint8(32), uint8(32), false, uint8(4), uint8(64), uint8(128), []byte{1, 2})
	f.Add(uint64(6), uint8(255), uint8(255), false, uint8(3), uint8(7), uint8(0), []byte{40, 0})
	f.Fuzz(func(t *testing.T, seed uint64, rowsB, colsB uint8, eight bool, spcB, nEvB, shufMask uint8, pe []byte) {
		rows := 1 + int(rowsB%48)
		cols := 1 + int(colsB%70)
		if rowsB == 255 && colsB == 255 {
			rows, cols = 129, 128
		}
		px := rows * cols
		spc := 1 + int(spcB%8)
		nEv := 1 + int(nEvB%8)
		conn := grid.FourWay
		if eight {
			conn = grid.EightWay
		}
		cfg := Config{
			ASICs:             (px + ChannelsPerASIC - 1) / ChannelsPerASIC,
			SamplesPerChannel: spc,
			PedestalPerSample: 200,
			GainADC:           40,
			ThresholdPE:       2,
			Detection: design.TopConfig{
				TwoDimension: true,
				TwoD: design.Config{
					Rows: rows, Cols: cols,
					Connectivity: conn,
					Stage:        design.StagePipelined,
				},
			},
		}
		runCfg, pixCfg := cfg, cfg
		runCfg.Serve = ServeRun
		pixCfg.Serve = ServePixel
		pBatch, err := New(runCfg)
		if err != nil {
			t.Fatal(err)
		}
		pSingle, err := New(runCfg)
		if err != nil {
			t.Fatal(err)
		}
		pPix, err := New(pixCfg)
		if err != nil {
			t.Fatal(err)
		}

		rng := detector.NewRNG(seed | 1)
		dig := detector.DefaultDigitizer()
		dig.Samples = spc
		events := make([][]Packet, nEv)
		for e := range events {
			truth := make([]grid.Value, cfg.ASICs*ChannelsPerASIC)
			for i := 0; i < px; i++ {
				if len(pe) > 0 {
					truth[i] = grid.Value(pe[(i+e)%len(pe)] % 42)
				}
			}
			packets, err := GenerateEvent(truth, cfg.ASICs, uint32(100+e), uint64(e), dig, rng)
			if err != nil {
				t.Fatal(err)
			}
			if shufMask>>(e%8)&1 == 1 && len(packets) > 1 {
				// Break canonical order: still a complete, valid event, whose lit
				// list the reference integration must sort back into raster order.
				packets[0], packets[len(packets)-1] = packets[len(packets)-1], packets[0]
			}
			events[e] = packets
		}
		if nEvB>>7 == 1 && len(events[0]) > 1 {
			// Truncated first event: both paths must fail it, identically,
			// without poisoning the rest of the batch.
			events[0] = events[0][:len(events[0])-1]
		}

		recs := make([]EventRecord, nEv)
		errs := make([]error, nEv)
		okBatch := pBatch.ServeBatch(events, recs, errs)

		okSingle := 0
		var recS, recP EventRecord
		for e := range events {
			errS := pSingle.ServeEvent(events[e], &recS)
			if errS != nil {
				if errs[e] == nil {
					t.Fatalf("event %d: ServeEvent failed (%v), ServeBatch succeeded", e, errS)
				}
				if errs[e].Error() != errS.Error() {
					t.Fatalf("event %d: batch error %q != single error %q", e, errs[e], errS)
				}
				continue
			}
			okSingle++
			if errs[e] != nil {
				t.Fatalf("event %d: ServeBatch failed (%v), ServeEvent succeeded", e, errs[e])
			}
			bb := recs[e].AppendTo(nil)
			sb := recS.AppendTo(nil)
			if !bytes.Equal(bb, sb) {
				t.Fatalf("event %d: batched record bytes differ from single-event bytes\nbatch:  %v\nsingle: %v",
					e, recs[e], recS)
			}
			if err := pPix.ServeEvent(events[e], &recP); err != nil {
				t.Fatalf("event %d: pixel reference failed: %v", e, err)
			}
			if !bytes.Equal(bb, recP.AppendTo(nil)) {
				t.Fatalf("event %d: batched record bytes differ from pixel reference\nbatch: %v\npixel: %v",
					e, recs[e], recP)
			}
		}
		if okBatch != okSingle {
			t.Fatalf("ServeBatch reported %d served, single path %d", okBatch, okSingle)
		}
	})
}
