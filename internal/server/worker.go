package server

import (
	"runtime"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// serveBatchMax bounds how many queued events one worker drains into a single
// adapt.ServeLitBatch call. Large enough to amortize the per-wakeup costs
// (ring scans, clock reads, counter updates, scheduler churn) across a
// backlog, small enough that a burst cannot hold response flushing hostage
// for long.
const serveBatchMax = 64

// lingerMin is the batch size below which the worker yields once and re-polls
// its rings before serving. Under load a tiny drain usually means the reader
// goroutines are mid-flight on the same core; one bounded linger lets their
// pushes land and refills the batch, instead of paying a full serve-and-flush
// cycle per near-empty drain. The linger is a single yield — trickle traffic
// is delayed by at most one scheduler pass, never parked (TestTrickleFlushesPromptly).
const lingerMin = 8

// run is a worker's serving loop — the only one — draining the ingest rings
// of its assigned connections until ingress closes and the rings are empty
// (graceful drain). Each drain, up to the drain cap, goes through serve as one
// batch. Pacing is a parameter of this loop, not a second loop: a service
// interval (Config.PaceRate) makes the drain cap 1 and has serve wait out the
// event's slot first, so a paced worker takes one event off its lane per slot
// — a fixed-rate derandomizer consumer — and frees that event's admission
// slot before the wait, when a hardware FIFO's read pointer would move.
//
// Parking: when every ring is empty the worker announces parked, re-drains
// (closing the race against a producer that pushed before the announcement),
// and then blocks on its wake channel. Producers only touch the channel when
// they observe parked, so the steady-state hot path is ring-only.
func (s *Server) run(w *worker, p *adapt.Pipeline) {
	defer s.workersWG.Done()
	limit := serveBatchMax
	if s.cfg.PaceRate > 0 {
		// Fixed-capacity backend model: one event per 1/PaceRate.
		w.interval = time.Duration(float64(time.Second) / s.cfg.PaceRate)
		limit = 1
	}
	batch := make([]*event, limit)
	w.lits = make([]adapt.LitEvent, limit)
	w.recs = make([]adapt.EventRecord, limit)

	closed := false // ingress is over and the rings are frozen
	for {
		evs := w.drain(batch[:0])
		if len(evs) == 0 {
			if closed {
				return
			}
			w.parked.Store(true)
			if evs = w.drain(batch[:0]); len(evs) == 0 {
				select {
				case <-w.wake:
				case <-s.ingressDone:
					// Every reader has exited: serve what the rings still
					// hold and retire on the first empty drain.
					closed = true
				}
			}
			w.parked.Store(false)
			if len(evs) == 0 {
				continue
			}
		} else if len(evs) < lingerMin && len(evs) < cap(evs) {
			// Bounded linger: one yield, one re-poll, then serve whatever is
			// there. drain appends, so the already-drained events keep their
			// positions (and their latency clocks).
			runtime.Gosched()
			evs = w.drain(evs)
		}
		s.serve(w, p, evs)
	}
}

// serve is the per-drain body: one ServeLitBatch over evs (at least one
// event, at most the drain cap) and the responses coalesced into one pooled
// write buffer per connection, so a busy lane pays for clock reads, counter
// updates, ring traffic, and writer wakeups once per batch instead of once
// per event.
//
//hepccl:hotpath
func (s *Server) serve(w *worker, p *adapt.Pipeline, evs []*event) {
	if w.interval > 0 {
		w.awaitSlot()
	}
	lits, recs := w.lits[:len(evs)], w.recs[:len(evs)]
	var lit uint64
	for i, ev := range evs {
		lit += uint64(len(ev.Lit))
		lits[i] = ev.LitEvent
	}
	served := time.Now()
	p.ServeLitBatch(lits, recs)
	// One clock read ends the service interval (which excludes the slot
	// wait) and stamps every event's handoff.
	now := time.Now()
	s.stats.ServeNs.Add(uint64(now.Sub(served)))
	s.stats.LitChannels.Add(lit)
	// drain pops each ring's backlog contiguously, so same-conn events form
	// runs and each run becomes a single pooled buffer — one ring push, one
	// writer wakeup, one update of each counter.
	var buf []byte
	var out, bad uint64
	for i, ev := range evs {
		if ev.Bad != nil {
			bad++
		} else {
			if buf == nil {
				buf = bufPool.Get().([]byte)[:0]
			}
			buf = recs[i].AppendTo(buf)
			out++
		}
		if i+1 < len(evs) && evs[i+1].c == ev.c {
			continue // the connection's run goes on
		}
		c := ev.c
		c.stats.EventsOut.Add(out) // zero for a run of bad events
		s.stats.EventsOut.Add(out)
		if bad > 0 {
			c.stats.BadEvents.Add(bad)
			s.stats.BadEvents.Add(bad)
		}
		if buf != nil {
			c.pushResponse(buf)
		}
		// The response is in the ring before the run's events are resolved,
		// so the writer's final drain (armed by inflight.Wait) cannot miss it.
		c.inflight.Add(-int(out + bad))
		buf, out, bad = nil, 0, 0
	}
	for _, ev := range evs {
		s.stats.latency.observe(now.Sub(ev.enqueued))
		putEvent(ev)
	}
	if w.interval > 0 {
		w.idle = time.Now()
	}
}

// awaitSlot holds a paced worker to its absolute service schedule: each
// event's slot is one interval after the previous one. Short sleeps overshoot
// badly, so the worker sleeps only when the schedule runs ahead by more than
// sleepSlack and then serves the queued backlog back-to-back — exactly how a
// fixed-rate derandomizer drains. Slots are banked only while events keep
// arriving: a drain that found the lane idle (the previous serve ended more
// than idleRestart ago) restarts the schedule from now.
func (w *worker) awaitSlot() {
	const (
		sleepSlack  = 200 * time.Microsecond
		idleRestart = 20 * time.Microsecond
	)
	now := time.Now()
	if now.Sub(w.idle) > idleRestart {
		w.due = now
	}
	if wait := w.due.Sub(now); wait > sleepSlack {
		time.Sleep(wait)
	}
	w.due = w.due.Add(w.interval)
}
