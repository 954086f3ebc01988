package server

import (
	"runtime"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// serveBatchMax bounds how many queued events one worker drains into a single
// adapt.ServeLitBatch call. Large enough to amortize the per-wakeup costs
// (ring scans, clock reads, scheduler churn) and the run sink's whole-batch
// resolution sweep across a backlog, small enough that a burst cannot hold
// response flushing hostage for long.
const serveBatchMax = 64

// lingerMin is the batch size below which the worker yields once and re-polls
// its rings before serving. Under load a tiny drain usually means the reader
// goroutines are mid-flight on the same core; one bounded linger lets their
// pushes land and refills the batch, instead of paying a full serve-and-flush
// cycle per near-empty drain. The linger is a single yield — trickle traffic
// is delayed by at most one scheduler pass, never parked (TestTrickleFlushesPromptly).
const lingerMin = 8

// run is one worker's serving loop, draining the ingest rings of its assigned
// connections until ingress closes and the rings are empty (graceful drain).
//
// In the unpaced functional mode (the serving configuration), the worker
// drains whatever backlog its lanes hold — up to serveBatchMax events — into
// one ServeLitBatch call and coalesces the batch's responses into one pooled
// write buffer per connection, so a busy lane pays for clock reads, counter
// updates, ring traffic, and writer wakeups once per batch instead of once
// per event. Paced and full-pipeline modes keep the one-event-at-a-time loop:
// pacing needs a service slot per event, and ProcessEvent has no batch entry
// point.
//
// Parking: when every ring is empty the worker announces parked, re-drains
// (closing the race against a producer that pushed before the announcement),
// and then blocks on its wake channel. Producers only touch the channel when
// they observe parked, so the steady-state hot path is ring-only.
func (s *Server) run(w *worker, p *adapt.Pipeline) {
	defer s.workersWG.Done()
	if s.cfg.PaceHardware || s.cfg.FullPipeline || s.cfg.PaceRate > 0 {
		s.runSerial(w, p)
		return
	}
	batch := make([]*event, serveBatchMax)
	lits := make([]adapt.LitEvent, 0, serveBatchMax)
	recs := make([]adapt.EventRecord, serveBatchMax)

	serve := func(evs []*event) {
		lits = lits[:0]
		var lit uint64
		for _, ev := range evs {
			lits = append(lits, ev.LitEvent)
			lit += uint64(len(ev.Lit))
		}
		served := time.Now()
		p.ServeLitBatch(lits, recs[:len(evs)])
		// One clock read ends the service interval and stamps every
		// event's handoff.
		now := time.Now()
		s.stats.ServeNs.Add(uint64(now.Sub(served)))
		s.stats.LitChannels.Add(lit)
		// Responses coalesce per connection: drain pops each ring's backlog
		// contiguously, so same-conn events form runs and each run becomes a
		// single pooled buffer — one ring push, one writer wakeup, one update
		// of each counter.
		for i := 0; i < len(evs); {
			c := evs[i].c
			j := i
			var buf []byte
			var bad uint64
			for ; j < len(evs) && evs[j].c == c; j++ {
				if evs[j].Bad != nil {
					bad++
					continue
				}
				if buf == nil {
					buf = bufPool.Get().([]byte)[:0]
				}
				buf = recs[j].AppendTo(buf)
			}
			if bad > 0 {
				c.stats.BadEvents.Add(bad)
				s.stats.BadEvents.Add(bad)
			}
			if buf != nil {
				out := uint64(j-i) - bad
				c.stats.EventsOut.Add(out)
				s.stats.EventsOut.Add(out)
				c.pushResponse(buf)
			}
			// The response is in the ring before inflight.Done, so the
			// writer's final drain (armed by inflight.Wait) cannot miss it.
			for _, ev := range evs[i:j] {
				s.stats.latency.observe(now.Sub(ev.enqueued))
				c.inflight.Done()
				putEvent(ev)
			}
			i = j
		}
	}

	for {
		evs := w.drain(batch[:0])
		if len(evs) > 0 {
			if len(evs) < lingerMin {
				// Bounded linger: one yield, one re-poll, then serve
				// whatever is there. drain appends, so the already-drained
				// events keep their positions (and their latency clocks).
				runtime.Gosched()
				evs = w.drain(evs)
			}
			serve(evs)
			continue
		}
		w.parked.Store(true)
		if evs = w.drain(batch[:0]); len(evs) > 0 {
			w.parked.Store(false)
			serve(evs)
			continue
		}
		select {
		case <-w.wake:
			w.parked.Store(false)
		case <-s.ingressDone:
			w.parked.Store(false)
			// Ingress is closed: every reader has exited, so the rings are
			// frozen. Serve the remainder and retire.
			for {
				if evs = w.drain(batch[:0]); len(evs) == 0 {
					return
				}
				serve(evs)
			}
		}
	}
}

// runSerial is the paced / full-pipeline loop: one event per service slot.
func (s *Server) runSerial(w *worker, p *adapt.Pipeline) {
	var rec adapt.EventRecord
	var interval time.Duration
	if s.cfg.PaceRate > 0 {
		// Explicit fixed-capacity backend model: one event per 1/PaceRate,
		// regardless of what the modeled FPGA would sustain.
		interval = time.Duration(float64(time.Second) / s.cfg.PaceRate)
	} else if s.cfg.PaceHardware {
		// Serve no faster than the modeled FPGA pipeline: one event per
		// EventIntervalCycles at the design clock. This makes the server's
		// loss-vs-depth behaviour directly comparable to E14.
		interval = time.Duration(float64(time.Second) / p.EventsPerSecond())
	}
	// Absolute service schedule: each event's service slot is one interval
	// after the previous one. Short sleeps overshoot badly, so the worker
	// sleeps only when the schedule runs ahead by more than sleepSlack and
	// then serves the queued backlog back-to-back — exactly how a fixed-rate
	// derandomizer drains. Slots are banked only while events keep arriving:
	// a pop that found the lane idle restarts the schedule from now.
	const sleepSlack = 200 * time.Microsecond
	var due time.Time
	idle := time.Now()

	serve := func(ev *event) {
		if interval > 0 {
			now := time.Now()
			if now.Sub(idle) > 20*time.Microsecond {
				due = now // lane was empty; unused slots are not banked
			}
			if wait := due.Sub(now); wait > sleepSlack {
				time.Sleep(wait)
			}
			due = due.Add(interval)
		}
		var err error
		served := time.Now()
		if s.cfg.FullPipeline {
			var res *adapt.EventResult
			if res, err = p.ProcessEvent(ev.packets); err == nil {
				rec = adapt.RecordOf(res)
			}
		} else if err = ev.Bad; err == nil {
			p.ServeLit(ev.LitEvent, &rec)
		}
		s.stats.ServeNs.Add(uint64(time.Since(served).Nanoseconds()))
		s.finishEvent(ev, &rec, err)
		idle = time.Now()
	}

	for {
		if ev, ok := w.popOne(); ok {
			serve(ev)
			continue
		}
		w.parked.Store(true)
		if ev, ok := w.popOne(); ok {
			w.parked.Store(false)
			serve(ev)
			continue
		}
		select {
		case <-w.wake:
			w.parked.Store(false)
		case <-s.ingressDone:
			w.parked.Store(false)
			for {
				ev, ok := w.popOne()
				if !ok {
					return
				}
				serve(ev)
			}
		}
	}
}

// finishEvent records the outcome of one serially served event: response
// handoff and counters on success, error counters otherwise, then latency
// accounting and event-storage recycling.
//
//hepccl:hotpath
func (s *Server) finishEvent(ev *event, rec *adapt.EventRecord, err error) {
	if err != nil {
		ev.c.stats.BadEvents.Add(1)
		s.stats.BadEvents.Add(1)
	} else {
		buf := bufPool.Get().([]byte)
		ev.c.pushResponse(rec.AppendTo(buf[:0]))
		ev.c.stats.EventsOut.Add(1)
		s.stats.EventsOut.Add(1)
	}
	s.stats.latency.observe(time.Since(ev.enqueued))
	ev.c.inflight.Done()
	putEvent(ev)
}
