package server

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// worker: zero-suppressed at the reader, so what rides the ring is the lit
// list (this event's own right-sized copy), not decoded samples. Events and
// their storage are pooled.
type event struct {
	c *conn
	adapt.LitEvent
	enqueued time.Time
}

var eventPool = sync.Pool{New: func() any { return new(event) }}

func getEvent() *event  { return eventPool.Get().(*event) }
func putEvent(e *event) { e.c, e.Bad = nil, nil; eventPool.Put(e) }

// worker is one serving lane: a pipeline goroutine draining the ingest rings
// of the connections assigned to it. The derandomizer-depth bound lives in
// fill, not in the rings — fill counts events admitted (enqueue) and not yet
// drained by the worker, and admission CASes it against Config.QueueDepth.
// Because at most QueueDepth events are admitted across the worker's
// connections and every ingest ring holds at least QueueDepth, an admitted
// event's ring push can never find the ring full.
//
//hepccl:pool
type worker struct {
	fill   atomic.Int64  //hepccl:cursor — admitted, not yet drained; bounded by QueueDepth
	parked atomic.Bool   // worker is about to park (or parked) on wake
	wake   chan struct{} //hepccl:wake — capacity 1: producers nudge a parked worker

	mu    sync.Mutex
	conns []*conn // connections assigned to this lane (accept adds, drain prunes)
	next  int     // round-robin drain offset across conns

	// The worker goroutine's own: one record per drained event; the response
	// buffer each connection's run of records is coalesced into before its
	// one write; the connections prune took off the lane, waiting for retire;
	// and the pacer (interval 0 = unpaced; see awaitSlot).
	recs      []adapt.EventRecord
	resp      []byte
	gone      []*conn
	interval  time.Duration
	due, idle time.Time
}

func newWorker() *worker {
	return &worker{wake: make(chan struct{}, 1)}
}

// addConn assigns c to this lane.
func (w *worker) addConn(c *conn) {
	w.mu.Lock()
	w.conns = append(w.conns, c)
	w.mu.Unlock()
}

// notify wakes the worker if it is parked (or about to park: a producer that
// loads parked==true before the worker's pre-park recheck just leaves a token
// the select consumes immediately). Producers that observe parked==false are
// safe to skip the send — their ring write is sequenced before the load, so
// the worker's pre-park drain sees the event.
//
//hepccl:hotpath
func (w *worker) notify() {
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// drain moves events from the lane's ingest rings into dst (up to cap(dst)),
// round-robining across connections so one saturated link cannot starve the
// rest, and prunes connections whose reader has exited with nothing left
// queued. Worker-side only.
//
//hepccl:hotpath
func (w *worker) drain(dst []*event) []*event {
	w.mu.Lock()
	defer w.mu.Unlock()
	conns := w.conns
	n := len(conns)
	if n == 0 {
		return dst
	}
	// Round-robin as two provable chunks, [next, n) then [0, next): the
	// split happens inside one branch where next < n is a direct fact, so
	// both reslices (and the range loops) carry no bounds checks — the
	// modulus form defeats the prover.
	next := w.next
	head := conns[:0]
	tail := conns
	if next > 0 && next < n {
		head = conns[:next]
		tail = conns[next:]
	} else {
		next = 0
	}
	for _, c := range tail {
		if len(dst) >= cap(dst) {
			break
		}
		k := c.in.popBatch(dst[len(dst):cap(dst)])
		if k > 0 {
			w.fill.Add(int64(-k))
			// popBatch returns at most the spare capacity it was handed.
			//hepccl:checked
			dst = dst[:len(dst)+k]
		}
	}
	for _, c := range head {
		if len(dst) >= cap(dst) {
			break
		}
		k := c.in.popBatch(dst[len(dst):cap(dst)])
		if k > 0 {
			w.fill.Add(int64(-k))
			// popBatch returns at most the spare capacity it was handed.
			//hepccl:checked
			dst = dst[:len(dst)+k]
		}
	}
	w.next = next + 1
	w.prune()
	return dst
}

// prune moves connections that can never produce again — reader exited and
// ingest ring empty (the reader raises readerGone only after its final push,
// so this order of observation is conclusive) — from the drain list to gone,
// for the worker to retire once this drain's records are written. Callers
// hold w.mu.
func (w *worker) prune() {
	live := w.conns[:0]
	for _, c := range w.conns {
		if c.readerGone.Load() && c.in.len() == 0 {
			w.gone = append(w.gone, c)
			continue
		}
		live = append(live, c)
	}
	for i := len(live); i < len(w.conns); i++ {
		w.conns[i] = nil
	}
	w.conns = live
}

// enqueue admits ev to its connection's worker lane under the overflow
// policy. It reports whether the event was accepted; rejected events are
// counted as drops (the caller still owns ev).
//
//hepccl:hotpath
func (s *Server) enqueue(ev *event) bool {
	c := ev.c
	w := c.w
	depth := int64(s.cfg.QueueDepth)
	var f int64
	for spins := 0; ; {
		f = w.fill.Load()
		if f < depth {
			if w.fill.CompareAndSwap(f, f+1) {
				break
			}
			continue
		}
		if s.cfg.Policy != PolicyBlock || s.isDraining() {
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
	c.in.push(ev)
	s.stats.observeQueueDepth(int(f + 1))
	w.notify()
	return true
}
