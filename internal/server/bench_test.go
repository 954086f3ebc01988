package server

import (
	"net"
	"testing"
	"time"

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

// discardConn is a socket that accepts every write at once, so the ingest
// benchmark's response writes cost the write path, not a peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkIngestPath measures the full software spine between the socket and
// the response bytes, on the daemon's path: the suppressing stream read
// (frame walk, checksum, zero-suppression), the lit-list copy into the pooled
// event, admission (the send on the lane's channel), the worker's drain, batched
// serving, response serialization into the worker's buffer, and the
// connection's deadline-armed write. It is single-goroutine on purpose — the
// point is the per-event CPU and allocation cost of the path, not scheduler
// throughput — and the CI bench smoke gates on allocs/op == 0 in steady
// state. The record variant runs the same spine with frame capture and WAL
// appends enabled, gating that durability stays off the allocator too.
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
	s := &Server{
		cfg:      Config{QueueDepth: 64, Policy: PolicyBlock}.withDefaults(),
		draining: make(chan struct{}),
	}
	w := newWorker(s.cfg.QueueDepth)
	w.recs = make([]adapt.EventRecord, batch)
	c := &conn{s: s, nc: discardConn{}, w: w}
	evs := make([]*event, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		// Reader leg: decode one batch and admit it to the lane.
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
			ev.c, ev.enqueued = c, time.Now()
			if !s.enqueue(ev) {
				b.Fatal("lane full")
			}
		}
		// Worker leg: drain, serve, coalesce into the worker's buffer, write.
		got := w.drain(evs[:0])
		if len(got) != batch {
			b.Fatalf("drained %d of %d", len(got), batch)
		}
		s.serve(w, p, got)
	}
	b.StopTimer()
	if c.failed || c.stats.EventsOut.Load() == 0 {
		b.Fatalf("responses not written (failed %v, out %d)", c.failed, c.stats.EventsOut.Load())
	}
}
