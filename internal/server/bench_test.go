package server

import (
	"testing"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// loopStream replays one serialized event stream forever — an infinite clean
// link with zero per-read allocation, so the ingest benchmark measures the
// spine, not the source.
type loopStream struct {
	data []byte
	off  int
}

func (l *loopStream) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// BenchmarkIngestPath measures the full software spine between the socket and
// the response bytes, on the daemon's path: the suppressing stream read
// (frame walk, checksum, zero-suppression), the lit-list copy into the pooled
// event, queue handoff, batched serving, and response serialization into a
// pooled write buffer. It is single-goroutine on purpose — the point is the per-event CPU
// and allocation cost of the path, not scheduler throughput — and the CI
// bench smoke gates on allocs/op == 0 in steady state. The record variant
// runs the same spine with frame capture and WAL appends enabled, gating that
// durability stays off the allocator too.
func BenchmarkIngestPath(b *testing.B) {
	b.Run("bare", func(b *testing.B) { benchIngestPath(b, false) })
	b.Run("record", func(b *testing.B) { benchIngestPath(b, true) })
}

func benchIngestPath(b *testing.B, record bool) {
	cfg := testConfig()
	p, err := adapt.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	events := makeEvents(b, cfg, 4, 42)
	var stream []byte
	for _, ev := range events {
		for i := range ev {
			frame, err := ev[i].Marshal()
			if err != nil {
				b.Fatal(err)
			}
			stream = append(stream, frame...)
		}
	}
	sup := p.Suppressor()
	sr := adapt.NewStreamReader(&loopStream{data: stream})
	var wlog *wal.Writer
	if record {
		w, _, err := wal.Open(wal.Options{Dir: b.TempDir(), Retain: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		wlog = w
		sr.SetCapture(true)
	}

	const batch = 32
	queue := newRing[*event](64)
	out := newRing[[]byte](responseRingDepth)
	evs := make([]*event, batch)
	lits := make([]adapt.LitEvent, 0, batch)
	recs := make([]adapt.EventRecord, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		// Ingest leg: decode and push one batch through the ingest ring.
		for i := 0; i < batch; i++ {
			ev := getEvent()
			le, err := sr.ReadSuppressed(sup)
			if err != nil || le.Bad != nil {
				b.Fatal(err, le.Bad)
			}
			ev.Event = le.Event
			ev.Lit = append(ev.Lit[:0], le.Lit...)
			if wlog != nil {
				if err := wlog.Append(ev.Event, sr.Captured()); err != nil {
					b.Fatal(err)
				}
			}
			if !queue.push(ev) {
				b.Fatal("ingest ring full")
			}
		}
		// Worker leg: drain, serve, coalesce into one pooled buffer.
		if got := queue.popBatch(evs); got != batch {
			b.Fatalf("drained %d of %d", got, batch)
		}
		lits = lits[:0]
		for _, e := range evs {
			lits = append(lits, e.LitEvent)
		}
		p.ServeLitBatch(lits, recs[:batch])
		buf := bufPool.Get().([]byte)[:0]
		for i, e := range evs {
			buf = recs[i].AppendTo(buf)
			putEvent(e)
		}
		if !out.push(buf) {
			b.Fatal("response ring full")
		}
		// Writer leg: take ownership and recycle.
		w, ok := out.pop()
		if !ok {
			b.Fatal("response ring empty")
		}
		bufPool.Put(w[:0]) //nolint:staticcheck // []byte pooling is intentional
	}
}
