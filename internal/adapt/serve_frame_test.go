package adapt

import (
	"bytes"
	"errors"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

// Frames larger than any paper geometry: they serve on the same run backend
// as the 43×43 camera, checked here against the per-pixel oracle.

// frameEvents digitizes n random-blob events for a megapixel-style frame
// config: px/400 blobs ≈ 2% occupancy.
func frameEvents(t testing.TB, cfg Config, n int, seed uint64) [][]Packet {
	t.Helper()
	rng := detector.NewRNG(seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	rows, cols := cfg.Detection.TwoD.Rows, cfg.Detection.TwoD.Cols
	events := make([][]Packet, n)
	for i := range events {
		g := detector.RandomIslands(rows, cols, rows*cols/400, 1.5, rng)
		packets, err := GenerateEvent(g.Flat(), cfg.ASICs, uint32(i), uint64(i), dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = packets
	}
	return events
}

// framePipelines builds the run pipeline and the per-pixel oracle for cfg.
func framePipelines(t testing.TB, cfg Config) (run, pixel *Pipeline) {
	t.Helper()
	var err error
	if run, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Serve = ServePixel
	if pixel, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	return run, pixel
}

// TestServeEventFrameMatchesPixel runs 160×160 frame events through the run
// backend and the per-pixel reference and requires byte-identical downlink
// records: same compact raster island numbering, same integer moments, same
// Q16.16 centroids.
func TestServeEventFrameMatchesPixel(t *testing.T) {
	cfg := DefaultFrame(160, 160)
	run, pixel := framePipelines(t, cfg)
	if got := run.ServeEngine(); got != "run" {
		t.Fatalf("160x160 default backend %q, want run", got)
	}
	total := 0
	for i, packets := range frameEvents(t, cfg, 6, 41) {
		var recR, recP EventRecord
		if err := run.ServeEvent(packets, &recR); err != nil {
			t.Fatal(err)
		}
		if err := pixel.ServeEvent(packets, &recP); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recR.AppendTo(nil), recP.AppendTo(nil)) {
			t.Fatalf("event %d: run record diverges from per-pixel reference", i)
		}
		total += len(recR.Islands)
	}
	if total == 0 {
		t.Fatal("no islands in any event; workload broken")
	}
}

// TestServeLitBatchMegapixel drives ServeLitBatch with events far larger
// than the arena ever is on a paper geometry: nine 128×128 checkerboards of
// 8,192 one-pixel runs (and islands) each, then a sparse frame, an empty
// event and a Bad event. Every record must be byte-identical to serving that
// event alone and to the per-pixel oracle, with no allocation once the arena
// is warm.
func TestServeLitBatchMegapixel(t *testing.T) {
	const side = 128
	cfg := DefaultFrame(side, side)
	run, pixel := framePipelines(t, cfg)
	single, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A lit entry of pe photo-electrons: one per GainADC above the nominal
	// pedestal, carried as the integral's excess over the channel's limit.
	lit := func(fl, pe int) Lit {
		raw := cfg.PedestalPerSample*int64(cfg.SamplesPerChannel) + int64(pe)*cfg.GainADC
		return mkLit(fl, raw-single.sup.limits[fl])
	}
	var events []LitEvent
	for e := 0; e < 9; e++ {
		var list []Lit
		for fl := 0; fl < side*side; fl++ {
			if (fl/side+fl%side+e)%2 == 0 {
				list = append(list, lit(fl, 3+(fl+e)%29))
			}
		}
		events = append(events, LitEvent{Event: uint32(e), Lit: list})
	}
	// Three runs, two islands: (0,5)-(0,6) joins (1,6) below it.
	sparse := []Lit{lit(5, 4), lit(6, 9), lit(side+6, 3), lit(side*side-1, 30)}
	events = append(events,
		LitEvent{Event: 9, Lit: sparse},
		LitEvent{Event: 10},
		LitEvent{Event: 11, Bad: errors.New("duplicate ASIC")},
	)

	recs := make([]EventRecord, len(events))
	run.ServeLitBatch(events, recs)
	var recS, recP EventRecord
	for i, ev := range events {
		got := recs[i].AppendTo(nil)
		single.ServeLit(ev, &recS)
		if !bytes.Equal(got, recS.AppendTo(nil)) {
			t.Fatalf("event %d: batched record differs from ServeLit alone", i)
		}
		pixel.ServeLit(ev, &recP)
		if !bytes.Equal(got, recP.AppendTo(nil)) {
			t.Fatalf("event %d: batched record differs from the per-pixel oracle", i)
		}
	}
	if n := len(recs[0].Islands); n != side*side/2 {
		t.Fatalf("checkerboard served %d islands, want %d", n, side*side/2)
	}
	if len(recs[9].Islands) != 2 || len(recs[10].Islands) != 0 || len(recs[11].Islands) != 0 {
		t.Fatalf("sparse/empty/bad served %d/%d/%d islands, want 2/0/0",
			len(recs[9].Islands), len(recs[10].Islands), len(recs[11].Islands))
	}
	if allocs := testing.AllocsPerRun(5, func() { run.ServeLitBatch(events, recs) }); allocs != 0 {
		t.Fatalf("ServeLitBatch allocates %v times per batch once warm, want 0", allocs)
	}
}
