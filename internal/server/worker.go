package server

import (
	"runtime"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// serveBatchMax bounds how many queued events one worker drains and serves
// per wakeup. Large enough to amortize the per-wakeup costs (clock reads,
// counter updates, scheduler churn) across a backlog, small enough that a
// burst cannot hold response flushing hostage for long.
const serveBatchMax = 64

// lingerMin is the batch size below which the worker yields once and re-polls
// its lane before serving. Under load a tiny drain usually means the reader
// goroutines are mid-flight on the same core; one bounded linger lets their
// sends land and refills the batch, instead of paying a full serve-and-flush
// cycle per near-empty drain. The linger is a single yield — trickle traffic
// is delayed by at most one scheduler pass, never held for a fuller batch
// (TestTrickleFlushesPromptly).
const lingerMin = 8

// run is a worker's serving loop — the only one. It blocks on its lane for
// an event, drains whatever else is queued behind it (up to the drain cap)
// and serves the drain through serve as one batch, until Shutdown closes the
// lane and the lane is empty (graceful drain). Pacing is a parameter of this
// loop, not a second loop: a service interval (Config.PaceRate) makes the
// drain cap 1 and has serve wait out the event's slot first, so a paced
// worker takes one event off its lane per slot — a fixed-rate derandomizer
// consumer — and frees that event's FIFO slot before the wait, when a
// hardware FIFO's read pointer would move.
func (s *Server) run(w *worker, p *adapt.Pipeline) {
	defer s.workersWG.Done()
	limit := serveBatchMax
	if s.cfg.PaceRate > 0 {
		// Fixed-capacity backend model: one event per 1/PaceRate.
		w.interval = time.Duration(float64(time.Second) / s.cfg.PaceRate)
		limit = 1
	}
	batch := make([]*event, limit)
	w.recs = make([]adapt.EventRecord, limit)

	for ev := range w.q {
		evs := w.drain(w.take(batch[:0], ev))
		if len(evs) > 0 && len(evs) < lingerMin && len(evs) < cap(evs) {
			// Bounded linger: one yield, one re-poll, then serve whatever is
			// there. drain appends, so the already-drained events keep their
			// positions (and their latency clocks).
			runtime.Gosched()
			evs = w.drain(evs)
		}
		if len(evs) > 0 {
			s.serve(w, p, evs)
		}
		s.retire(w)
	}
}

// retire closes and forgets the connections whose marker the last drain
// took. It runs after the drain's records are written, so each connection's
// last response is on the wire first. Every reader sends its marker before
// it exits and Shutdown closes the lanes only after every reader has exited,
// so all connections are retired by the time Shutdown's wait on the workers
// returns.
func (s *Server) retire(w *worker) {
	for i, c := range w.gone {
		c.nc.Close()
		s.removeConn(c)
		w.gone[i] = nil
	}
	w.gone = w.gone[:0]
}

// serve is the per-drain body: ServeLit on each of evs (at least one event,
// at most the drain cap) and each connection's responses coalesced into the
// worker's buffer and written with one send, so a busy lane pays for clock
// reads, counter updates and write syscalls once per connection per drain
// instead of once per event.
//
//hepccl:hotpath
func (s *Server) serve(w *worker, p *adapt.Pipeline, evs []*event) {
	if w.interval > 0 {
		w.awaitSlot()
	}
	groupByConn(evs)
	recs := w.recs[:len(evs)]
	var lit uint64
	served := time.Now()
	for i, ev := range evs {
		lit += uint64(len(ev.Lit))
		p.ServeLit(ev.LitEvent, &recs[i])
	}
	// One clock read ends the service interval (which excludes the slot
	// wait) and stamps every event's handoff.
	now := time.Now()
	s.stats.ServeNs.Add(uint64(now.Sub(served)))
	s.stats.LitChannels.Add(lit)
	// groupByConn made each connection's events one run, and each run
	// becomes one write and one update of each counter.
	buf := w.resp[:0]
	var out, bad uint64
	for i, ev := range evs {
		if ev.Bad != nil {
			bad++
		} else {
			buf = recs[i].AppendTo(buf)
			out++
		}
		if i+1 < len(evs) && evs[i+1].c == ev.c {
			continue // the connection's run goes on
		}
		c := ev.c
		c.stats.EventsOut.Add(out) // zero for a run of bad events
		if bad > 0 {
			c.stats.BadEvents.Add(bad)
		}
		c.send(buf)
		buf, out, bad = buf[:0], 0, 0
	}
	w.resp = buf
	for _, ev := range evs {
		s.stats.latency.observe(now.Sub(ev.enqueued))
		putEvent(ev)
	}
	if w.interval > 0 {
		w.idle = time.Now()
	}
}

// groupByConn reorders evs in place, stably, so that each connection's
// events are contiguous: all a client can observe of the lane's FIFO is its
// own events' order. A drain of one connection costs len(evs)-1 compares.
func groupByConn(evs []*event) {
	for i := 1; i < len(evs); i++ {
		c := evs[i-1].c
		// Pull c's next event in this drain, if any, forward to i.
		for j := i + 1; j < len(evs) && evs[i].c != c; j++ {
			if e := evs[j]; e.c == c {
				copy(evs[i+1:j+1], evs[i:j])
				evs[i] = e
			}
		}
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
