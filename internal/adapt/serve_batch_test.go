package adapt

import (
	"bytes"
	"testing"
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
