package server

import (
	"runtime"
	"sync"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// OverflowPolicy selects what happens when an event arrives at a full
// derandomizer queue.
type OverflowPolicy int

const (
	// PolicyDrop counts and discards the arriving event — the semantics of a
	// hardware derandomizer FIFO with the pipeline busy (adapt.SimulateTrigger,
	// E14). The default.
	PolicyDrop OverflowPolicy = iota
	// PolicyBlock stalls the connection's reader until the queue has room,
	// pushing backpressure onto the TCP link instead of losing events.
	PolicyBlock
)

// String implements fmt.Stringer.
func (p OverflowPolicy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	default:
		return "drop"
	}
}

// event is one assembled trigger travelling from a connection reader to a
// worker: zero-suppressed at the reader, so what rides the lane is the lit
// list (this event's own right-sized copy), not decoded samples. Events and
// their storage are pooled. A marker event (last set) carries no trigger: it
// is the connection's final message through the lane, sent when its reader
// exits, and tells the worker to retire the connection.
type event struct {
	c *conn
	adapt.LitEvent
	enqueued time.Time
	last     bool
}

var eventPool = sync.Pool{New: func() any { return new(event) }}

func getEvent() *event  { return eventPool.Get().(*event) }
func putEvent(e *event) { e.c, e.Bad = nil, nil; eventPool.Put(e) }

// worker is one serving lane: a pipeline goroutine receiving from q, the
// lane's derandomizer FIFO. q is a buffered channel of capacity
// Config.QueueDepth shared by every connection pinned to the lane, so the
// depth bound spans them all, like one hardware FIFO.
type worker struct {
	q chan *event

	// The worker goroutine's own: one record per drained event; the response
	// buffer each connection's run of records is coalesced into before its
	// one write; the connections whose marker this drain took, waiting for
	// retire; and the pacer (interval 0 = unpaced; see awaitSlot).
	recs      []adapt.EventRecord
	resp      []byte
	gone      []*conn
	interval  time.Duration
	due, idle time.Time
}

func newWorker(depth int) *worker {
	return &worker{q: make(chan *event, depth)}
}

// drain moves queued events into dst, up to cap(dst), without blocking: it
// stops at the first empty receive (or a closed lane). Worker-side only.
//
//hepccl:hotpath
func (w *worker) drain(dst []*event) []*event {
	for len(dst) < cap(dst) {
		select {
		case ev, ok := <-w.q:
			if !ok {
				return dst
			}
			dst = w.take(dst, ev)
		default:
			return dst
		}
	}
	return dst
}

// take appends one received event to dst, or, for a marker, sets its
// connection aside for retire once this drain's records are written. The
// marker follows the connection's last event through the FIFO, so nothing of
// the connection is still queued behind it.
func (w *worker) take(dst []*event, ev *event) []*event {
	if ev.last {
		w.gone = append(w.gone, ev.c)
		return dst
	}
	return append(dst, ev)
}

// enqueue admits ev to its connection's worker lane under the overflow
// policy. It reports whether the event was accepted; rejected events are
// counted as drops (the caller still owns ev).
//
//hepccl:hotpath
func (s *Server) enqueue(ev *event) bool {
	q := ev.c.w.q
	block := s.cfg.Policy == PolicyBlock
	for spins := 0; ; {
		select {
		case q <- ev:
			s.stats.observeQueueDepth(len(q))
			return true
		default:
		}
		if !block || s.isDraining() {
			// Full lane under drop policy — or ingress is closing, where
			// nothing will drain fast enough to honor a blocking admit.
			// Either way it is a FIFO loss.
			return false
		}
		// Backpressure: stall this reader (and through TCP, the sender)
		// until the worker frees a slot. Yield first — on few-core hosts
		// the worker needs this core to make that progress — then back off
		// to short sleeps so a long stall does not burn the CPU.
		if spins++; spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
