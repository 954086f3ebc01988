package adapt

import (
	"bytes"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

// TestServeBatchMatchesServeEvent is the deterministic tier-1 version of
// FuzzBatchVsSingle: CTA shower batches through ServeBatch must serialize to
// exactly the bytes the single-event path produces, at both sample depths
// (4 exercises the fused SWAR decode, 16 the generic loop).
func TestServeBatchMatchesServeEvent(t *testing.T) {
	for _, samples := range []int{4, 16} {
		cfg := DefaultCTA()
		cfg.SamplesPerChannel = samples
		pb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 32
		events := ctaEvents(t, cfg, n, 21)
		recs := make([]EventRecord, n)
		errs := make([]error, n)
		if got := pb.ServeBatch(events, recs, errs); got != n {
			t.Fatalf("samples=%d: ServeBatch served %d of %d", samples, got, n)
		}
		var rec EventRecord
		for i := range events {
			if errs[i] != nil {
				t.Fatalf("samples=%d event %d: %v", samples, i, errs[i])
			}
			if err := ps.ServeEvent(events[i], &rec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recs[i].AppendTo(nil), rec.AppendTo(nil)) {
				t.Fatalf("samples=%d event %d: batched record differs from single-event record",
					samples, i)
			}
		}
	}
}

// TestServeBatchBadEvent checks per-event error isolation: a broken event in
// the middle of a batch fails alone, with the same error as the single path,
// and its neighbours still serve.
func TestServeBatchBadEvent(t *testing.T) {
	cfg := DefaultCTA()
	cfg.SamplesPerChannel = 4
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := ctaEvents(t, cfg, 3, 9)
	events[1] = events[1][:len(events[1])-1] // drop an ASIC
	recs := make([]EventRecord, 3)
	errs := make([]error, 3)
	if got := p.ServeBatch(events, recs, errs); got != 2 {
		t.Fatalf("ServeBatch served %d, want 2", got)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy events failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("truncated event must fail")
	}
	var rec EventRecord
	if err := ps.ServeEvent(events[1], &rec); err == nil || err.Error() != errs[1].Error() {
		t.Fatalf("batch error %q, single-path error %v", errs[1], err)
	}
}

// BenchmarkServeDense is the dense serving path in isolation: 512 distinct
// 43×43 events at 30 % occupancy, 5–24 p.e. per lit pixel (the
// cta-dense-sat frame: a few hundred runs and islands per event), served by
// ServeLit and encoded with AppendTo 64 at a time, as a lane worker drains.
// CI requires 0 allocs/op.
func BenchmarkServeDense(b *testing.B) {
	const distinct, batch = 512, 64
	cfg := DefaultCTA()
	cfg.SamplesPerChannel = 4
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := detector.NewRNG(23)
	px := cfg.Detection.TwoD.Rows * cfg.Detection.TwoD.Cols
	events := make([]LitEvent, distinct)
	lit := 0
	for e := range events {
		events[e].Event = uint32(e)
		for fl := 0; fl < px; fl++ {
			if rng.Float64() < 0.30 {
				pe := int64(5 + rng.Intn(20))
				raw := cfg.PedestalPerSample*int64(cfg.SamplesPerChannel) + pe*cfg.GainADC
				events[e].Lit = append(events[e].Lit, mkLit(fl, raw-p.sup.limits[fl]))
			}
		}
		lit += len(events[e].Lit)
	}
	recs := make([]EventRecord, batch)
	var buf []byte
	islands := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += distinct {
		islands = 0
		for lo := 0; lo < distinct; lo += batch {
			for i := range recs {
				p.ServeLit(events[lo+i], &recs[i])
			}
			buf = buf[:0]
			for i := range recs {
				buf = recs[i].AppendTo(buf)
				islands += len(recs[i].Islands)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+distinct-1)/distinct*distinct), "ns/event")
	b.ReportMetric(float64(lit)/distinct, "lit/event")
	b.ReportMetric(float64(islands)/distinct, "islands/event")
}
