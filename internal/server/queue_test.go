package server

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/leakcheck"
)

// admissionHarness wires a bare Server, one worker lane, and n connections —
// just enough state for enqueue/drain without sockets.
func admissionHarness(depth, nconns int, policy OverflowPolicy) (*Server, *worker, []*conn) {
	s := &Server{
		cfg:      Config{QueueDepth: depth, Policy: policy}.withDefaults(),
		conns:    make(map[*conn]struct{}),
		draining: make(chan struct{}),
	}
	w := newWorker(s.cfg.QueueDepth)
	conns := make([]*conn, nconns)
	for i := range conns {
		conns[i] = &conn{s: s, w: w, id: uint64(i + 1)}
	}
	return s, w, conns
}

// TestEnqueueAdmissionCASRace hammers derandomizer admission — once a CAS on
// an admission counter, now the non-blocking send on the lane — from many
// producers against a concurrently draining consumer. Invariants: the lane
// never holds more than QueueDepth events, every accepted event is drained
// exactly once, and accepted+rejected accounts for every attempt. Under
// -race this is the data-race proof for the admission path.
func TestEnqueueAdmissionCASRace(t *testing.T) {
	const (
		producers   = 8
		perProducer = 5000
		depth       = 16
	)
	s, w, conns := admissionHarness(depth, producers, PolicyDrop)
	var accepted, rejected atomic.Int64
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	var drained int64
	go func() {
		defer close(consumerDone)
		dst := make([]*event, 0, depth)
		final := false
		for {
			dst = w.drain(dst[:0])
			if n := len(w.q); n > depth {
				t.Errorf("lane holds %d events, depth %d", n, depth)
			}
			drained += int64(len(dst))
			for _, ev := range dst {
				putEvent(ev)
			}
			if len(dst) == 0 {
				if final {
					return
				}
				select {
				case <-stop:
					// Producers are done; one more empty drain proves the
					// lane is fully swept.
					final = true
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				ev := getEvent()
				ev.c = c
				if s.enqueue(ev) {
					accepted.Add(1)
				} else {
					putEvent(ev)
					rejected.Add(1)
				}
			}
		}(conns[i])
	}
	wg.Wait()
	close(stop)
	<-consumerDone
	if got := accepted.Load() + rejected.Load(); got != producers*perProducer {
		t.Fatalf("accepted %d + rejected %d = %d, want %d attempts",
			accepted.Load(), rejected.Load(), got, producers*perProducer)
	}
	if drained != accepted.Load() {
		t.Fatalf("drained %d events, accepted %d", drained, accepted.Load())
	}
	if n := len(w.q); n != 0 {
		t.Fatalf("lane holds %d events after full drain, want 0", n)
	}
}

// TestEnqueueBlockPolicyBackpressure runs the same contention under
// PolicyBlock, whose admission loop retries the lane's non-blocking send: no
// event may be rejected — producers stall in the admission loop until the
// consumer frees a slot — and the depth bound still holds.
func TestEnqueueBlockPolicyBackpressure(t *testing.T) {
	const (
		producers   = 4
		perProducer = 2000
		depth       = 8
		total       = producers * perProducer
	)
	s, w, conns := admissionHarness(depth, producers, PolicyBlock)
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		dst := make([]*event, 0, depth)
		drained := 0
		for drained < total {
			dst = w.drain(dst[:0])
			if n := len(w.q); n > depth {
				t.Errorf("lane holds %d events, depth %d", n, depth)
			}
			drained += len(dst)
			for _, ev := range dst {
				putEvent(ev)
			}
			if len(dst) == 0 {
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				ev := getEvent()
				ev.c = c
				if !s.enqueue(ev) {
					t.Errorf("enqueue rejected an event under PolicyBlock")
					putEvent(ev)
				}
			}
		}(conns[i])
	}
	wg.Wait()
	<-consumerDone
	if n := len(w.q); n != 0 {
		t.Fatalf("lane holds %d events after consuming all %d, want 0", n, total)
	}
}

// laneLog is the ordered record of what a worker did to the connections of
// one lane: every write (the connection and its bytes) and every close.
type laneLog struct {
	mu      sync.Mutex
	writes  []laneWrite
	closed  []uint64 // connection ids, in close order
	closeAt []int    // len(writes) at each close
}

type laneWrite struct {
	conn uint64
	buf  []byte
}

// logConn is a socket that appends what the worker writes to it, and its
// close, to a laneLog.
type logConn struct {
	net.Conn
	id  uint64
	log *laneLog
}

func (c *logConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	c.log.writes = append(c.log.writes, laneWrite{c.id, append([]byte(nil), p...)})
	return len(p), nil
}

func (c *logConn) Close() error {
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	c.log.closed = append(c.log.closed, c.id)
	c.log.closeAt = append(c.log.closeAt, len(c.log.writes))
	return nil
}

func (*logConn) SetWriteDeadline(time.Time) error { return nil }

// TestLaneDrainAfterClose runs one worker over a lane that already holds
// everything it will ever get: events of two connections interleaved, each
// connection's marker sent by finishReads behind its last event (as its
// reader does on exit), and a third connection's event with no marker, then
// the lane closed (as Shutdown does once every reader has returned). More
// events than one drain takes, so the worker serves several drains. Each
// connection must get its own events in FIFO order, in at most one write per
// drain; each marked connection must be retired only after its last record
// is written, the unmarked one left open and registered, and the worker must
// return.
func TestLaneDrainAfterClose(t *testing.T) {
	leakcheck.Check(t)
	cfg := testConfig()
	p, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2*serveBatchMax + 20
	lits := litEvents(t, p, makeEvents(t, cfg, n, 11))

	s, w, conns := admissionHarness(n+3, 3, PolicyDrop)
	var log laneLog
	for _, c := range conns {
		c.nc = &logConn{id: c.id, log: &log}
		s.conns[c] = struct{}{}
	}
	a, b, open := conns[0], conns[1], conns[2]
	aLast := serveBatchMax + 5 // a's marker lands inside the second drain
	queue := func(c *conn, le adapt.LitEvent) {
		ev := getEvent()
		ev.c, ev.enqueued = c, time.Now()
		ev.Event, ev.Bad = le.Event, le.Bad
		ev.Lit = append(ev.Lit[:0], le.Lit...)
		if !s.enqueue(ev) {
			t.Fatalf("event %d refused by a lane with room", le.Event)
		}
	}
	owner := make(map[uint32]uint64, n)
	for i, le := range lits {
		c := b
		switch {
		case i == n-1:
			c = open
		case i <= aLast && i%2 == 0:
			c = a
		}
		queue(c, le)
		owner[le.Event] = c.id
		if i == aLast {
			a.finishReads()
		}
	}
	b.finishReads()
	close(w.q)

	s.workersWG.Add(1)
	done := make(chan struct{})
	go func() {
		s.run(w, p)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not return after its lane closed")
	}

	// Collect each connection's records in the order its writes carried
	// them, noting how many writes it took to carry its last record.
	served := map[uint64][]uint32{}
	lastWrite := map[uint64]int{}
	records := 0
	for i, wr := range log.writes {
		for _, rec := range readAllRecords(t, bytes.NewReader(wr.buf)) {
			if owner[rec.Event] != wr.conn {
				t.Fatalf("event %d written to conn %d, want %d", rec.Event, wr.conn, owner[rec.Event])
			}
			served[wr.conn] = append(served[wr.conn], rec.Event)
			records++
		}
		lastWrite[wr.conn] = i + 1
	}
	if records != n {
		t.Fatalf("%d records written, want %d", records, n)
	}
	next := map[uint64]int{}
	for _, le := range lits {
		id := owner[le.Event]
		if k := next[id]; k >= len(served[id]) || served[id][k] != le.Event {
			t.Fatalf("conn %d: record %d is not event %d: not served in FIFO order", id, k, le.Event)
		}
		next[id]++
	}
	// The lane was full before the worker started, so its drains are the
	// FIFO cut into serveBatchMax events (markers take no slot), and each
	// drain writes once to each connection it holds.
	wantWrites := 0
	for start := 0; start < n; start += serveBatchMax {
		inDrain := map[uint64]bool{}
		for _, le := range lits[start:min(start+serveBatchMax, n)] {
			inDrain[owner[le.Event]] = true
		}
		wantWrites += len(inDrain)
	}
	if len(log.writes) != wantWrites {
		t.Fatalf("%d writes for %d events in %d drains, want %d: one per connection per drain",
			len(log.writes), n, (n+serveBatchMax-1)/serveBatchMax, wantWrites)
	}
	if len(log.closed) != 2 {
		t.Fatalf("closed conns %v, want exactly a (%d) and b (%d)", log.closed, a.id, b.id)
	}
	for i, id := range log.closed {
		if id != a.id && id != b.id {
			t.Errorf("conn %d retired without a marker", id)
		}
		if log.closeAt[i] < lastWrite[id] {
			t.Errorf("conn %d retired after %d writes, before its last record (write %d)", id, log.closeAt[i], lastWrite[id])
		}
	}
	if _, ok := s.conns[open]; !ok || len(s.conns) != 1 {
		t.Errorf("%d conns registered after the drain (unmarked one among them: %v), want only the unmarked one", len(s.conns), ok)
	}
}

// litEvents suppresses events through p's calibrated table, as a
// connection's reader does, and returns each event's own lit list.
func litEvents(t testing.TB, p *adapt.Pipeline, events [][]adapt.Packet) []adapt.LitEvent {
	t.Helper()
	var wire bytes.Buffer
	sw := adapt.NewStreamWriter(&wire)
	for _, ev := range events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	sr := adapt.NewStreamReader(&wire)
	out := make([]adapt.LitEvent, len(events))
	for i := range out {
		le, err := sr.ReadSuppressed(p.Suppressor())
		if err != nil || le.Bad != nil {
			t.Fatalf("event %d: %v %v", i, err, le.Bad)
		}
		le.Lit = append([]adapt.Lit(nil), le.Lit...)
		out[i] = le
	}
	return out
}

// TestGroupByConn pins the drain reorder: each connection's events become
// contiguous, connections in order of first appearance, and each one's
// events keep their arrival order.
func TestGroupByConn(t *testing.T) {
	conns := []*conn{{id: 0}, {id: 1}, {id: 2}}
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"a", "a"},
		{"aaaa", "aaaa"},
		{"abab", "aabb"},
		{"abacba", "aaabbc"},
		{"cbacba", "ccbbaa"},
		{"aabbbc", "aabbbc"},
	} {
		evs := make([]*event, len(tc.in))
		for i, ch := range tc.in {
			evs[i] = &event{c: conns[ch-'a']}
			evs[i].Event = uint32(i)
		}
		groupByConn(evs)
		var got []byte
		last := map[*conn]int{}
		for _, ev := range evs {
			got = append(got, byte('a'+ev.c.id))
			if n, ok := last[ev.c]; ok && int(ev.Event) < n {
				t.Errorf("%q: conn %d's events out of arrival order", tc.in, ev.c.id)
			}
			last[ev.c] = int(ev.Event)
		}
		if string(got) != tc.want {
			t.Errorf("groupByConn(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
