package server

import (
	"errors"
	"io"
	"net"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// conn is one client connection: a reader goroutine assembling events and
// sending them to its worker's lane. A connection is pinned to one worker at
// accept; that worker also writes the connection's responses and retires it.
type conn struct {
	s      *Server
	nc     net.Conn
	w      *worker
	id     uint64
	remote string
	// failed is the worker's own: set at the first response-write fault,
	// after which the connection's records are discarded.
	failed bool
	stats  counters
}

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
			lastSkipped = sr.SkippedBytes
		}
		d := sr.BadPackets - lastBad
		if d > 0 {
			c.stats.BadPackets.Add(uint64(d))
			lastBad = sr.BadPackets
		}
		if r := sr.ReferenceEvents - lastRef; r > 0 {
			s.stats.ReferenceRouteEvents.Add(uint64(r))
			lastRef = sr.ReferenceEvents
		}
		return d
	}
	ev := getEvent()
	// Deferred in this order so the last counter sync lands before
	// finishReads hands the connection to its worker for retirement, which
	// folds its counters into the server's totals.
	defer c.finishReads()
	defer func() { putEvent(ev) }()
	defer syncStream()

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
		skimmed := s.cfg.Policy == PolicyDrop && len(c.w.q) >= s.cfg.QueueDepth
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
			c.nc.Close()
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
					}
					if tr.active() {
						c.stats.IdleTimeouts.Add(1)
					} else {
						c.stats.ReadErrors.Add(1)
					}
				}
				return
			}
		}
		switch {
		case err == nil && skimmed:
			// A fully assembled event that was never decoded: it is a FIFO
			// loss exactly like an enqueue rejection.
			c.stats.EventsIn.Add(1)
			c.stats.Dropped.Add(1)
		case err == nil:
			ev.c = c
			ev.enqueued = time.Now()
			c.stats.EventsIn.Add(1)
			if wlog != nil {
				// Write ahead of the enqueue so a crash never serves an event
				// the log missed. A failed append sticky-fails the writer and
				// shows up in /healthz; ingest itself keeps flowing.
				//hepccl:amortized
				wlog.Append(ev.Event, sr.Captured())
			}
			if s.enqueue(ev) {
				ev = getEvent()
			} else {
				// A FIFO loss; ev is reused for the next read.
				c.stats.Dropped.Add(1)
			}
		case errors.Is(err, adapt.ErrIncompleteEvent):
			// Missing or interleaved packets: count and resynchronize. If
			// the cause was a transport fault, the next read surfaces it.
			c.stats.IncompleteEvents.Add(1)
		case errors.Is(err, adapt.ErrResyncStorm):
			// Bad-packet budget exhausted without a valid frame. The
			// counters were synced above and the breaker already had its
			// chance to trip; if it didn't, keep hunting.
		case errors.Is(err, io.EOF):
			// Clean end of stream.
			return
		default:
			// Transport fault (timeouts were classified above).
			if !s.isDraining() {
				c.stats.ReadErrors.Add(1)
			}
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

// finishReads marks ingress over for this connection: it sends the marker
// event behind the reader's last event, and the worker, once it has served
// everything ahead of the marker, writes the last records and retires the
// connection. The send may wait for room in the lane under either policy: the
// marker is not a trigger, and the worker keeps draining until Shutdown
// closes the lane, which it does only after every reader has returned.
func (c *conn) finishReads() {
	c.w.q <- &event{c: c, last: true}
}

// send writes one coalesced run of records to the client — the connection's
// only write. The write deadline is armed for this write alone and cleared
// after it, so a stalled client holds its lane for at most WriteTimeout and
// the deadline cannot fire during a later idle stretch. The first fault
// closes the socket, which also unblocks the reader, and every later run is
// discarded. Worker-side only.
//
//hepccl:hotpath
func (c *conn) send(buf []byte) {
	if c.failed || len(buf) == 0 {
		return
	}
	nc := c.nc
	err := nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	if err == nil {
		_, err = nc.Write(buf)
		if cerr := nc.SetWriteDeadline(time.Time{}); err == nil {
			err = cerr
		}
	}
	if err != nil {
		c.failed = true
		nc.Close()
		return
	}
	c.stats.BytesOut.Add(uint64(len(buf)))
}
