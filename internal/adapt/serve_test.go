package adapt

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// ctaEvents digitizes n shower events for a CTA-style config.
func ctaEvents(t testing.TB, cfg Config, n int, seed uint64) [][]Packet {
	t.Helper()
	rng := detector.NewRNG(seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	cam := detector.LSTCamera()
	events := make([][]Packet, n)
	for i := range events {
		g := cam.Shower(cam.TypicalShower(rng), rng)
		packets, err := GenerateEvent(g.Flat(), cfg.ASICs, uint32(i), uint64(i), dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = packets
	}
	return events
}

// islandKey sorts island records into a label-independent order: ServeEvent
// numbers islands compactly in raster order while the hardware model keeps
// merge-table roots, so only the partition and its statistics must agree.
func sortIslands(islands []IslandRecord) {
	sort.Slice(islands, func(i, j int) bool {
		a, b := islands[i], islands[j]
		if a.Sum != b.Sum {
			return a.Sum < b.Sum
		}
		if a.Pixels != b.Pixels {
			return a.Pixels < b.Pixels
		}
		return a.RowQ16 < b.RowQ16
	})
}

// TestServeEventMatchesProcessEvent checks the serving fast path against the
// cycle-accurate pipeline on 2D shower events, and on a 64×80 frame whose 320
// ASICs the one-byte wire field alone cannot address: same islands, same
// pixel counts and sums, centroids within fixed-point rounding distance. A
// second CTA round gives every seventh channel a negative suppression limit, −40 (such a
// channel is always lit, with an excess above its integral), which the
// co-simulation sees only as a pedestal. In every leg the wire path, under each
// scan kernel the host has, must serve the events' frames to ServeEvent's
// records byte for byte.
func TestServeEventMatchesProcessEvent(t *testing.T) {
	t.Cleanup(func() { useAVX2 = hostAVX2 })
	type leg struct {
		name     string
		cfg      Config
		negative bool
		events   [][]Packet
	}
	var legs []leg
	for _, samples := range []int{16, 4} {
		for _, negative := range []bool{false, true} {
			cfg := DefaultCTA()
			cfg.SamplesPerChannel = samples
			legs = append(legs, leg{fmt.Sprintf("samples=%d negative=%v", samples, negative),
				cfg, negative, ctaEvents(t, cfg, 8, 7)})
		}
	}
	// 320 ASICs: the packets past the 256th carry a non-zero Flags byte.
	wide := DefaultFrame(64, 80)
	legs = append(legs, leg{"frame 64x80", wide, false, frameEvents(t, wide, 8, 7)})
	for _, l := range legs {
		p, err := New(l.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if l.negative {
			peds := make([]int64, p.Channels())
			for fl := range peds {
				peds[fl] = p.Pedestal(fl)
				if fl%7 == 0 {
					peds[fl] = -40 - p.cutoff
				}
			}
			if err := p.SetPedestals(peds); err != nil {
				t.Fatal(err)
			}
		}
		total := 0
		var stream []byte
		var records [][]byte
		for _, packets := range l.events {
			res, err := p.ProcessEvent(packets)
			if err != nil {
				t.Fatal(err)
			}
			full := RecordOf(res)
			var rec EventRecord
			if err := p.ServeEvent(packets, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Event != full.Event {
				t.Fatalf("%s: event id %d, want %d", l.name, rec.Event, full.Event)
			}
			if len(rec.Islands) != len(full.Islands) {
				t.Fatalf("%s event %d: serve found %d islands, process %d",
					l.name, rec.Event, len(rec.Islands), len(full.Islands))
			}
			got := append([]IslandRecord(nil), rec.Islands...)
			want := append([]IslandRecord(nil), full.Islands...)
			sortIslands(got)
			sortIslands(want)
			for i := range got {
				if got[i].Pixels != want[i].Pixels || got[i].Sum != want[i].Sum {
					t.Fatalf("%s event %d island %d: got pixels=%d sum=%d, want pixels=%d sum=%d",
						l.name, rec.Event, i, got[i].Pixels, got[i].Sum, want[i].Pixels, want[i].Sum)
				}
				// Both sides divide the same integer moments; allow one
				// Q16.16 LSB of rounding skew.
				if dr := math.Abs(float64(got[i].RowQ16 - want[i].RowQ16)); dr > 1 {
					t.Fatalf("%s event %d island %d: row centroid off by %v Q16 LSB",
						l.name, rec.Event, i, dr)
				}
				if dc := math.Abs(float64(got[i].ColQ16 - want[i].ColQ16)); dc > 1 {
					t.Fatalf("%s event %d island %d: col centroid off by %v Q16 LSB",
						l.name, rec.Event, i, dc)
				}
			}
			total += len(rec.Islands)
			records = append(records, rec.AppendTo(nil))
			for i := range packets {
				frame, err := packets[i].Marshal()
				if err != nil {
					t.Fatal(err)
				}
				stream = append(stream, frame...)
			}
		}
		if total == 0 {
			t.Fatalf("%s: no islands in any event; workload broken", l.name)
		}
		for _, avx2 := range []bool{false, hostAVX2} {
			useAVX2 = avx2
			got, _ := wirePath(t, p, stream)
			if len(got) != len(records) {
				t.Fatalf("%s: wire path assembled %d events, want %d", l.name, len(got), len(records))
			}
			for i, o := range got {
				if o.class != "ok" || !bytes.Equal(o.rec, records[i]) {
					t.Fatalf("%s: %s wire path event %d: %s, record differs from ServeEvent's", l.name, ScanKernel(), i, o.class)
				}
			}
		}
	}
}

// TestPedestalExactnessGuard: a lit entry carries raw − limit in 32 bits,
// which is exact only for limits at or above −2^30. New and SetPedestals
// refuse a table with a limit below that, and SetPedestals then leaves the
// pipeline's table as it was; the bound itself is accepted.
func TestPedestalExactnessGuard(t *testing.T) {
	cfg := DefaultCTA()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peds := make([]int64, p.Channels())
	for fl := range peds {
		peds[fl] = p.Pedestal(fl)
	}
	peds[3] = minLimit - p.cutoff
	if err := p.SetPedestals(peds); err != nil {
		t.Fatalf("a limit of exactly -2^30 refused: %v", err)
	}
	peds[3]--
	if err := p.SetPedestals(peds); err == nil || !strings.Contains(err.Error(), "channel 3") {
		t.Fatalf("a limit below -2^30: got %v, want an error naming channel 3", err)
	}
	if got := p.Pedestal(3); got != minLimit-p.cutoff {
		t.Fatalf("a refused table was installed: pedestal 3 is %d", got)
	}

	// Every nominal limit at minLimit − (spc−1)·cutoff.
	cfg.PedestalPerSample = minLimit/int64(cfg.SamplesPerChannel) - p.cutoff
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted nominal pedestals that put every limit below -2^30")
	}
}

// TestServeEvent1DMatchesProcessEvent does the same for the 1D tracker path.
func TestServeEvent1DMatchesProcessEvent(t *testing.T) {
	cfg := DefaultADAPT()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := detector.NewRNG(9)
	dig := detector.DefaultDigitizer()
	tracker := detector.DefaultTracker()
	tracker.Channels = cfg.ASICs * ChannelsPerASIC
	tracker.Threshold = 0
	for ev := 0; ev < 8; ev++ {
		packets, err := GenerateEvent(tracker.Event(rng).Values, cfg.ASICs, uint32(ev), 0, dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ProcessEvent(packets)
		if err != nil {
			t.Fatal(err)
		}
		full := RecordOf(res)
		var rec EventRecord
		if err := p.ServeEvent(packets, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Islands) != len(full.Islands) {
			t.Fatalf("event %d: serve found %d islands, process %d",
				ev, len(rec.Islands), len(full.Islands))
		}
		for i := range rec.Islands {
			g, w := rec.Islands[i], full.Islands[i]
			if g.Pixels != w.Pixels || g.Sum != w.Sum {
				t.Fatalf("event %d island %d: got pixels=%d sum=%d, want pixels=%d sum=%d",
					ev, i, g.Pixels, g.Sum, w.Pixels, w.Sum)
			}
			if d := math.Abs(float64(g.ColQ16 - w.ColQ16)); d > 1 {
				t.Fatalf("event %d island %d: centroid off by %v Q16 LSB", ev, i, d)
			}
		}
	}
}

// TestServePixel1DMatchesProcessEvent: on a 1D config the flood-fill oracle
// labels the channels as one row, 4-way, and its downlink records must equal
// the cycle-accurate pipeline's byte for byte — island numbering, pixel
// counts, sums and Q16.16 centroids — while ServeRun stays on the direct 1D
// scan.
func TestServePixel1DMatchesProcessEvent(t *testing.T) {
	cfg := DefaultADAPT()
	cfg.Serve = ServePixel
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ServeEngine(); got != "pixel" {
		t.Fatalf("1D ServePixel engine %q, want pixel", got)
	}
	if run, err := New(DefaultADAPT()); err != nil || run.ServeEngine() != "1d" {
		t.Fatalf("1D ServeRun engine %q (%v), want 1d", run.ServeEngine(), err)
	}
	rng := detector.NewRNG(21)
	dig := detector.DefaultDigitizer()
	tracker := detector.DefaultTracker()
	tracker.Channels = cfg.ASICs * ChannelsPerASIC
	tracker.Threshold = 0
	islands := 0
	var rec EventRecord
	for ev := 0; ev < 200; ev++ {
		packets, err := GenerateEvent(tracker.Event(rng).Values, cfg.ASICs, uint32(ev), 0, dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ProcessEvent(packets)
		if err != nil {
			t.Fatal(err)
		}
		full := RecordOf(res)
		want := full.AppendTo(nil)
		if err := p.ServeEvent(packets, &rec); err != nil {
			t.Fatal(err)
		}
		if got := rec.AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("event %d: pixel record\n%x\nwant ProcessEvent's\n%x", ev, got, want)
		}
		islands += len(rec.Islands)
	}
	if islands == 0 {
		t.Fatal("no islands in 200 tracker events: the comparison proved nothing")
	}
}

// TestServeEventEightWay covers the 8-way connectivity branch of the inline
// labeler against the reference pipeline.
func TestServeEventEightWay(t *testing.T) {
	cfg := DefaultCTA()
	cfg.Detection.TwoD.Connectivity = grid.EightWay
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, packets := range ctaEvents(t, cfg, 4, 13) {
		res, err := p.ProcessEvent(packets)
		if err != nil {
			t.Fatal(err)
		}
		var rec EventRecord
		if err := p.ServeEvent(packets, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Islands) != len(RecordOf(res).Islands) {
			t.Fatalf("event %d: 8-way island count mismatch", rec.Event)
		}
	}
}

func TestServeEventRejectsBadEvent(t *testing.T) {
	cfg := DefaultCTA()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := ctaEvents(t, cfg, 1, 1)
	var rec EventRecord
	if err := p.ServeEvent(events[0][:len(events[0])-1], &rec); err == nil {
		t.Fatal("missing ASIC must be rejected")
	}
}

func BenchmarkServeEventCTA(b *testing.B) {
	for _, samples := range []int{16, 4} {
		name := "samples=16"
		if samples == 4 {
			name = "samples=4"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultCTA()
			cfg.SamplesPerChannel = samples
			p, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			packets := ctaEvents(b, cfg, 1, 1)[0]
			var rec EventRecord
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

func BenchmarkProcessEventCTA(b *testing.B) {
	cfg := DefaultCTA()
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	packets := ctaEvents(b, cfg, 1, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ProcessEvent(packets); err != nil {
			b.Fatal(err)
		}
	}
}
