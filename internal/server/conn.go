package server

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// conn is one client connection: a reader goroutine assembling events and a
// writer goroutine streaming downlink records back. Both legs ride SPSC
// rings: the reader feeds its worker through in, the worker feeds the writer
// through out. A connection is pinned to one worker at accept, which is what
// makes both rings single-producer/single-consumer.
type conn struct {
	s      *Server
	nc     net.Conn
	w      *worker
	id     uint64
	remote string
	// in carries assembled events to the owning worker. Its capacity covers
	// the full derandomizer depth, so an admitted event always has a slot.
	in *ring[*event]
	// out carries serialized responses from the owning worker to the writer.
	out *ring[[]byte]
	// outWake nudges a writer parked on an empty out ring (capacity 1).
	outWake chan struct{}
	// done is closed once the reader has exited and every in-flight event
	// for this connection has been resolved; the writer then drains out a
	// final time and exits.
	done chan struct{}
	// readerGone is raised by the reader after its final ring push; the
	// worker uses it to retire the connection from its drain list.
	readerGone atomic.Bool
	inflight   sync.WaitGroup
	stats      counters
}

// responseRingDepth is the out ring's capacity in coalesced buffers. The
// worker coalesces a whole batch into one buffer, so even a deep backlog
// occupies few slots; a stalled client eventually fills it and the worker's
// pushResponse stalls with it (the writer's deadline then kills the conn).
const responseRingDepth = 128

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 256) }}

// readLoop assembles events off the wire and feeds them to the owning worker.
func (c *conn) readLoop() {
	defer c.s.readersWG.Done()
	s := c.s
	tr := &timeoutReader{
		nc:       c.nc,
		idle:     s.cfg.IdleTimeout,
		assembly: s.cfg.AssemblyTimeout,
		draining: s.isDraining,
	}
	sr := adapt.NewStreamReader(tr)
	wlog := s.wal
	brk := resyncBreaker{window: s.cfg.BreakerWindow, limit: s.cfg.BreakerBadPackets}
	if s.cfg.BreakerBadPackets > 0 {
		// Surface control (ErrResyncStorm) often enough for the breaker to
		// evaluate even when the link never yields a valid packet.
		sr.BadPacketBudget = s.cfg.BreakerBadPackets
	}
	var lastSkipped, lastBad, lastRef int

	// syncStream publishes the stream reader's resync counters and returns
	// the new bad packets since the previous call (the breaker's input).
	syncStream := func() int {
		if d := sr.SkippedBytes - lastSkipped; d > 0 {
			c.stats.SkippedBytes.Add(uint64(d))
			s.stats.SkippedBytes.Add(uint64(d))
			lastSkipped = sr.SkippedBytes
		}
		d := sr.BadPackets - lastBad
		if d > 0 {
			c.stats.BadPackets.Add(uint64(d))
			s.stats.BadPackets.Add(uint64(d))
			lastBad = sr.BadPackets
		}
		if r := sr.ReferenceEvents - lastRef; r > 0 {
			s.stats.ReferenceRouteEvents.Add(uint64(r))
			lastRef = sr.ReferenceEvents
		}
		return d
	}
	defer syncStream()

	ev := getEvent()
	for {
		tr.MarkBoundary()
		// When the lane is already at derandomizer depth under drop policy,
		// the incoming event is condemned before it is read: skim it — the
		// same resync and interruption behaviour, but past its first frame
		// header-only framing with no checksum and no sample decode,
		// matching a hardware derandomizer that never inspects the trigger
		// it refuses. On a saturated host this is the difference between the
		// readers burning the core verifying events the queue will refuse and
		// that CPU going to the worker that could drain the queue.
		//
		// Otherwise the event is zero-suppressed as it is read: the reader's
		// one pass over the wire bytes verifies every frame and leaves the
		// lit list, which is all the worker needs.
		skimmed := s.cfg.Policy == PolicyDrop && c.w.fill.Load() >= int64(s.cfg.QueueDepth)
		// With recording on, the stream reader accumulates each admitted
		// event's raw wire bytes alongside the scan — no second pass over the
		// stream. A condemned event is never logged, so it is not copied.
		sr.SetCapture(wlog != nil && !skimmed)
		var le adapt.LitEvent
		var err error
		if skimmed {
			_, err = sr.SkimEvent(s.cfg.Pipeline.ASICs)
		} else if le, err = sr.ReadSuppressed(s.sup); err == nil {
			ev.Event, ev.Bad = le.Event, le.Bad
			ev.Lit = append(ev.Lit[:0], le.Lit...)
		}
		if bad := syncStream(); bad > 0 && brk.add(time.Now(), bad) {
			// Resync storm: this link is producing mostly garbage. Cut it
			// loose rather than burn a reader on an unframeable stream.
			c.stats.BreakerTrips.Add(1)
			s.stats.BreakerTrips.Add(1)
			c.nc.Close()
			putEvent(ev)
			c.finishReads()
			return
		}
		if err != nil {
			// A read-deadline timeout ends the connection no matter where
			// assembly stood (it may arrive wrapped in ErrIncompleteEvent
			// when it struck mid-event).
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if !s.isDraining() {
					if tr.started {
						// The deadline cut a half-assembled event.
						c.stats.IncompleteEvents.Add(1)
						s.stats.IncompleteEvents.Add(1)
					}
					if tr.active() {
						c.stats.IdleTimeouts.Add(1)
						s.stats.IdleTimeouts.Add(1)
					} else {
						c.stats.ReadErrors.Add(1)
						s.stats.ReadErrors.Add(1)
					}
				}
				putEvent(ev)
				c.finishReads()
				return
			}
		}
		switch {
		case err == nil && skimmed:
			// A fully assembled event that was never decoded: it is a FIFO
			// loss exactly like an enqueue rejection.
			c.stats.EventsIn.Add(1)
			s.stats.EventsIn.Add(1)
			c.stats.Dropped.Add(1)
			s.stats.Dropped.Add(1)
		case err == nil:
			ev.c = c
			ev.enqueued = time.Now()
			c.stats.EventsIn.Add(1)
			s.stats.EventsIn.Add(1)
			if wlog != nil {
				// Write ahead of the enqueue so a crash never serves an event
				// the log missed. A failed append sticky-fails the writer and
				// shows up in /healthz; ingest itself keeps flowing.
				//hepccl:amortized
				wlog.Append(ev.Event, sr.Captured())
			}
			c.inflight.Add(1)
			if s.enqueue(ev) {
				ev = getEvent()
			} else {
				c.stats.Dropped.Add(1)
				s.stats.Dropped.Add(1)
				c.inflight.Done() // reuse ev for the next read
			}
		case errors.Is(err, adapt.ErrIncompleteEvent):
			// Missing or interleaved packets: count and resynchronize. If
			// the cause was a transport fault, the next read surfaces it.
			c.stats.IncompleteEvents.Add(1)
			s.stats.IncompleteEvents.Add(1)
		case errors.Is(err, adapt.ErrResyncStorm):
			// Bad-packet budget exhausted without a valid frame. The
			// counters were synced above and the breaker already had its
			// chance to trip; if it didn't, keep hunting.
		case errors.Is(err, io.EOF):
			// Clean end of stream.
			putEvent(ev)
			c.finishReads()
			return
		default:
			// Transport fault (timeouts were classified above).
			if !s.isDraining() {
				c.stats.ReadErrors.Add(1)
				s.stats.ReadErrors.Add(1)
			}
			putEvent(ev)
			c.finishReads()
			return
		}
	}
}

// timeoutReader arms the connection's read deadline according to where event
// assembly stands: between events (MarkBoundary called, no byte delivered
// since) the idle timeout applies; once an event's first byte arrives the
// assembly timeout bounds the whole event. Either duration being zero
// disables that deadline. The boundary is approximate when the stream reader
// buffers ahead, which only ever errs toward the stricter assembly deadline.
type timeoutReader struct {
	nc       net.Conn
	idle     time.Duration
	assembly time.Duration
	draining func() bool
	started  bool
	deadline time.Time // absolute assembly deadline for the current event
}

// active reports whether the reader arms deadlines at all, so the read loop
// can attribute timeout errors to it.
func (tr *timeoutReader) active() bool { return tr.idle > 0 || tr.assembly > 0 }

// MarkBoundary declares that the next delivered byte starts a new event.
func (tr *timeoutReader) MarkBoundary() { tr.started = false }

//hepccl:hotpath
func (tr *timeoutReader) Read(p []byte) (int, error) {
	if tr.active() && !tr.draining() {
		// During drain the shutdown path has armed an immediate deadline;
		// leave it in place.
		var d time.Time
		if !tr.started {
			if tr.idle > 0 {
				d = time.Now().Add(tr.idle)
			}
		} else if tr.assembly > 0 {
			d = tr.deadline
		}
		if err := tr.nc.SetReadDeadline(d); err != nil {
			return 0, err
		}
	}
	n, err := tr.nc.Read(p)
	if n > 0 && !tr.started {
		tr.started = true
		if tr.assembly > 0 {
			tr.deadline = time.Now().Add(tr.assembly)
		}
	}
	return n, err
}

// resyncBreaker trips when more than limit bad packets land within one
// sliding window — the storm signature of a peer whose framing will never
// recover.
type resyncBreaker struct {
	window time.Duration
	limit  int
	start  time.Time
	n      int
}

// add accounts d more bad packets at time now and reports whether the
// breaker trips. A zero limit disables the breaker.
//
//hepccl:hotpath
func (b *resyncBreaker) add(now time.Time, d int) bool {
	if b.limit <= 0 {
		return false
	}
	if b.start.IsZero() || now.Sub(b.start) > b.window {
		b.start, b.n = now, 0
	}
	b.n += d
	return b.n > b.limit
}

// finishReads marks ingress over for this connection (letting the worker
// retire it) and arranges for the writer to terminate once every event this
// connection put in flight has been resolved.
func (c *conn) finishReads() {
	c.readerGone.Store(true)
	c.w.notify()
	go func() {
		c.inflight.Wait()
		close(c.done)
	}()
}

// pushResponse hands a serialized record buffer to the connection's writer.
// Called only by the owning worker (the out ring's single producer); the
// writer owns buf afterwards. A full ring means the client has stalled long
// enough for responseRingDepth coalesced buffers to pile up — the worker
// waits here, which is the same backpressure the old channel send applied,
// and the writer's deadline bounds how long the stall can last.
//
//hepccl:hotpath
func (c *conn) pushResponse(buf []byte) {
	for spins := 0; !c.out.push(buf); spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	select {
	case c.outWake <- struct{}{}:
	default:
	}
}

// writeLoop streams serialized records back to the client. After a write
// fault it keeps draining the ring (discarding) so the worker never stalls
// against a dead connection. The loop flushes whenever the ring goes empty —
// the natural batch boundary — and parks on outWake until the worker pushes
// again or done reports the connection resolved.
func (c *conn) writeLoop() {
	defer func() {
		c.nc.Close()
		c.s.removeConn(c)
		c.s.connsWG.Done()
	}()
	w := newDeadlineWriter(c.nc, c.s.cfg.WriteTimeout)
	failed := false
	write := func(buf []byte) {
		if !failed {
			if _, err := w.Write(buf); err != nil {
				failed = true
				c.nc.Close() // unblock the reader too
			} else {
				c.stats.BytesOut.Add(uint64(len(buf)))
				c.s.stats.BytesOut.Add(uint64(len(buf)))
			}
		}
		bufPool.Put(buf[:0]) //nolint:staticcheck // []byte pooling is intentional
	}
	flush := func() {
		if !failed {
			if err := w.Flush(); err != nil {
				failed = true
				c.nc.Close()
			}
		}
	}
	for {
		buf, ok := c.out.pop()
		if ok {
			write(buf)
			continue
		}
		flush()
		select {
		case <-c.outWake:
		case <-c.done:
			// Every response was pushed before its inflight.Done, so after
			// done nothing more can arrive: drain what remains and exit.
			for {
				buf, ok := c.out.pop()
				if !ok {
					break
				}
				write(buf)
			}
			flush()
			return
		}
	}
}

// deadlineWriter is a buffered writer that arms a write deadline before each
// flush, so a stalled client cannot wedge the writer goroutine forever.
type deadlineWriter struct {
	nc      net.Conn
	timeout time.Duration
	buf     []byte
}

func newDeadlineWriter(nc net.Conn, timeout time.Duration) *deadlineWriter {
	return &deadlineWriter{nc: nc, timeout: timeout, buf: make([]byte, 0, 32<<10)}
}

//hepccl:hotpath
func (w *deadlineWriter) Write(p []byte) (int, error) {
	if len(w.buf)+len(p) > cap(w.buf) {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

//hepccl:hotpath
func (w *deadlineWriter) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.timeout > 0 {
		if err := w.nc.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
			w.buf = w.buf[:0]
			return err
		}
	}
	_, err := w.nc.Write(w.buf)
	w.buf = w.buf[:0]
	if w.timeout > 0 {
		// Clear the deadline after a successful flush so it cannot fire
		// spuriously during a later long idle stretch.
		if cerr := w.nc.SetWriteDeadline(time.Time{}); err == nil {
			err = cerr
		}
	}
	return err
}
