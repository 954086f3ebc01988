package gateway

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// Per-client forwarding. One goroutine frames events off the client link
// with adapt.StreamReader.SkimEvent in capture mode — each event's first
// frame checksummed, the rest framed on their headers — and writes each
// event's captured wire bytes to the upstream connection for its chosen
// backend, which verifies every frame when it serves; one relay goroutine per
// upstream frames downlink records with adapt.RecordScanner and writes them
// back to the client. Upstream connections are per (client, backend) and
// lazily dialed, which gives per-source FIFO ordering for free: a client's
// events for one backend travel a single ordered TCP stream, and hepccld
// answers a connection's events in order.
//
// Accounting is exact by construction: every event framed off a client is
// counted offered, and ends in exactly one of relayed (a record reached the
// client), shed_overload, shed_no_backend, shed_backend_failed,
// shed_backend_dropped — or is still in flight. Relayed, in flight and the
// two backend sheds are counted once, on the backend charged with the event;
// the gateway totals are their sums. Charging and settling share
// the upstream's mutex, so an event charged concurrently with the stream
// dying is always either in the settle remainder or individually shed,
// never both and never neither. The soak test asserts the identity
// offered == relayed + shed_total + inflight at quiesce.
//
// Backend death does not shed what it can still save: each charged event's
// raw bytes stay held on the upstream until its record comes back, and when
// the connection dies with events unanswered, the never-retried ones are
// resubmitted once to a new slot owner instead of being shed. Resubmission
// takes the same path as forwarding — send: place, dial, charge, write — with
// the dead backend excluded and upstreams private to the resubmitting relay.
// The retried counter tallies those resubmissions; a resubmitted event is
// still exactly one offered event and still lands in exactly one terminal
// bucket, so the identity above is unchanged. An event whose retry also dies
// sheds as backend_failed — one retry, never a storm.

// upstreamFlushEvery caps how many events stage in one upstream write
// buffer before a forced flush, bounding latency under a steady client
// stream that never drains the read window.
const upstreamFlushEvery = 32

// heldEvent is one charged event's identity and raw bytes, kept until its
// record comes back so a dying connection can resubmit it instead of
// shedding it.
type heldEvent struct {
	event   uint32
	retried bool
	raw     []byte
}

// upstream is one lazily-dialed (client, backend) connection pair.
type upstream struct {
	b  *Backend
	nc *net.TCPConn
	bw *bufio.Writer

	// mu guards the held queue and the closed transition; charge (forwarder)
	// and ack/settle (relay) both take it, so the final remainder is exact.
	// It is also the accounting mutex: every accounted-counter mutation tied
	// to a charged event happens with mu held (acctproto enforces this).
	mu sync.Mutex //hepccl:acctmu
	// held queues the charged-but-unanswered events in write order;
	// held[head:] are live. hepccld answers a connection's events in order,
	// so a record always settles the queue front (a skipped entry was
	// dropped by the backend, proven by the later record arriving).
	held []heldEvent
	head int
	// free recycles raw buffers from answered events.
	free [][]byte
	// closed means no further writes: set by graceful half-close, write
	// failure, or the relay's settle. halfClosed marks the graceful case, the
	// only one after which an end of stream is clean.
	closed     atomic.Bool
	halfClosed atomic.Bool

	// pending counts events staged since the last flush; it belongs to the
	// goroutine that writes this upstream.
	pending int
}

// clientConn is the per-client forwarding state.
type clientConn struct {
	g  *Gateway
	nc *net.TCPConn
	sr *adapt.StreamReader

	// wmu serializes relay goroutines writing downlink records.
	wmu sync.Mutex
	bw  *bufio.Writer

	ups     map[*Backend]*upstream
	relayWG sync.WaitGroup
	// swept is the routing table ups was last swept against.
	swept *table
}

// handleConn owns one client connection for its lifetime.
func (g *Gateway) handleConn(nc net.Conn) {
	defer g.connsWG.Done()
	defer func() {
		g.mu.Lock()
		delete(g.clients, nc)
		g.mu.Unlock()
	}()
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		nc.Close()
		return
	}
	tc.SetNoDelay(false)
	c := &clientConn{
		g:     g,
		nc:    tc,
		sr:    adapt.NewStreamReader(tc),
		bw:    bufio.NewWriterSize(tc, 64<<10),
		ups:   make(map[*Backend]*upstream, 4),
		swept: g.table.Load(),
	}
	c.sr.SetCapture(true)
	c.run()
}

// run is the forwarding loop: frame, place, forward, flush.
func (c *clientConn) run() {
	g := c.g
	defer c.nc.Close()
	for {
		if t := g.table.Load(); t != c.swept {
			c.swept = t
			c.sweepUpstreams()
		}
		event, err := c.sr.SkimEvent(g.cfg.ASICs)
		if err != nil {
			if g.closing() {
				// Shutdown woke this read: ingress ends here, and whatever
				// the read was cut short on is not the client's error.
				c.finish()
				return
			}
			if errors.Is(err, adapt.ErrIncompleteEvent) {
				// One broken event; the reader resynced. Count and continue.
				g.stats.clientErrors.Add(1)
				continue
			}
			// EOF is the client's graceful half-close; anything else ends
			// the connection the same way, after draining what's in flight.
			if err != io.EOF {
				g.stats.clientErrors.Add(1)
				g.logf("gateway: client %s: %v", c.nc.RemoteAddr(), err)
			}
			c.finish()
			return
		}
		// offered is charged before the event touches any upstream: there is
		// no held entry yet, so no charge/settle pair exists to race with.
		//hepccl:checked
		g.stats.offered.Add(1)
		c.send(c.ups, event, c.sr.Captured(), nil)
		// Flush boundary: when the read window holds no complete frame the
		// next read blocks on the socket, so push staged work downstream
		// first.
		if c.sr.Buffered() < adapt.PacketHeaderBytes {
			c.flushAll(c.ups)
		}
	}
}

// send places one event and writes it upstream, dialing the chosen backend's
// upstream into ups if it has none. Forwarding passes c.ups and no dead
// backend; resubmission passes its relay's private upstreams and the backend
// whose connection died. An event that cannot be placed or dialed is shed
// with accounting.
func (c *clientConn) send(ups map[*Backend]*upstream, event uint32, raw []byte, dead *Backend) {
	g := c.g
	for {
		b := c.place(ups, event, dead)
		if b == nil {
			return // place accounted the shed
		}
		u := ups[b]
		if u == nil {
			var err error
			if u, err = c.dial(b); err != nil {
				// Dial failure: the event is charged to no upstream (a
				// resubmitted one was settled out of its dead upstream
				// first), so this shed has no settle to race with.
				//hepccl:checked
				b.failed.Add(1)
				g.markBackendDown(b, err)
				return
			}
			ups[b] = u
		}
		if !c.charge(u, event, raw, dead != nil) {
			// The upstream died between placement and charge (its relay
			// settled, or a write failed): the event was never written there.
			// Drop it and re-place; the rebuilt table routes around it.
			delete(ups, b)
			continue
		}
		if u.pending == 0 {
			// The first event of a staged run arms the deadline for every
			// write of the run: the buffer's own spills and the flush.
			u.nc.SetWriteDeadline(time.Now().Add(upstreamWriteTimeout))
		}
		if _, err := u.bw.Write(raw); err != nil {
			// The event stays charged; the relay's settle classifies it.
			c.fail(u, err)
			return
		}
		if dead != nil {
			g.stats.retried.Add(1)
		}
		if u.pending++; u.pending >= upstreamFlushEvery {
			c.flush(u)
		}
		return
	}
}

// place picks the backend for one event from the live table, never dead.
// While nothing in the chain can take the event (the whole chain overloaded,
// or the table not yet rebuilt past dead) it holds, flushing ups so held-up
// backends drain, and retries; then it sheds. nil means the event was shed,
// with accounting.
func (c *clientConn) place(ups map[*Backend]*upstream, event uint32, dead *Backend) *Backend {
	g := c.g
	for attempt := 0; ; attempt++ {
		t := g.table.Load()
		if b := c.pick(t, event); b != nil && b != dead {
			return b
		}
		if t.routable == 0 {
			// Pre-placement shed: the event is charged to no upstream (a
			// resubmitted one was settled out of its dead upstream first),
			// so no settle can also count it.
			//hepccl:checked
			g.stats.shedNoBackend.Add(1)
			return nil
		}
		if attempt >= holdRetries {
			// Pre-placement shed, as above: charged nowhere, no settle race.
			//hepccl:checked
			g.stats.shedOverload.Add(1)
			return nil
		}
		c.flushAll(ups)
		time.Sleep(holdDelay)
	}
}

// charge reserves one in-flight slot on u and stashes a copy of the event's
// raw bytes for one-shot resubmission, failing if the upstream already died.
func (c *clientConn) charge(u *upstream, event uint32, raw []byte, retried bool) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed.Load() {
		return false
	}
	var buf []byte
	if n := len(u.free); n > 0 {
		buf, u.free = u.free[n-1], u.free[:n-1]
	}
	u.held = append(u.held, heldEvent{event: event, retried: retried, raw: append(buf[:0], raw...)})
	u.b.inflight.Add(1)
	u.b.forwarded.Add(1)
	return true
}

// ack settles the held entry answered by a record for event id. Older
// entries skipped over got no answer from an in-order backend, so the later
// record's arrival proves they were dropped — they are classified
// backend_dropped here rather than at stream end, which would misfile them
// as failed if the connection later dies. A record for an id not held at all
// settles the queue front instead (positional fallback, so accounting never
// drifts on a confused stream). All counter movement happens with u.mu held:
// a record's settle and a concurrent charge serialize on the same lock.
func (c *clientConn) ack(u *upstream, id uint32) {
	u.mu.Lock()
	defer u.mu.Unlock()
	j := u.head
	for ; j < len(u.held); j++ {
		if u.held[j].event == id {
			break
		}
	}
	if j == len(u.held) {
		if u.head == len(u.held) {
			// Nothing held at all: still one delivered record.
			u.b.inflight.Add(-1)
			u.b.relayed.Add(1)
			return
		}
		j = u.head
	}
	if skipped := int64(j - u.head); skipped > 0 {
		u.b.inflight.Add(-skipped)
		u.b.dropped.Add(uint64(skipped))
	}
	u.b.inflight.Add(-1)
	u.b.relayed.Add(1)
	for i := u.head; i <= j; i++ {
		u.free = append(u.free, u.held[i].raw)
		u.held[i].raw = nil
	}
	u.head = j + 1
	if u.head == len(u.held) {
		u.held = u.held[:0]
		u.head = 0
	} else if u.head >= 64 && u.head*2 >= len(u.held) {
		n := copy(u.held, u.held[u.head:])
		u.held = u.held[:n]
		u.head = 0
	}
}

// pick chooses a backend for the event's slot chain: ring order starting at
// the health-spilled primary, skipping overloaded backends and candidates
// past their bounded-load cap. nil means nothing in the chain can take the
// event right now.
func (c *clientConn) pick(t *table, event uint32) *Backend {
	sc := t.chain(event)
	if sc.n == 0 {
		return nil
	}
	loadCap := c.loadCap(t)
	for k := int8(0); k < sc.n; k++ {
		b := sc.bs[(sc.primary+k)%sc.n]
		if b.HealthClass() == healthOverloaded {
			continue
		}
		if b.Inflight() > loadCap && k < sc.n-1 {
			// Bounded load: past the cap, overflow to the next candidate.
			// The last candidate takes the event regardless — bounded-load
			// placement spreads, it never sheds; only overload sheds.
			continue
		}
		return b
	}
	return nil
}

// loadCap is the bounded-load ceiling: loadPct of the fleet-mean in-flight,
// plus a burst allowance so quiet fleets don't bounce. The fleet's in-flight
// is summed over the table's backends, a few atomic loads.
func (c *clientConn) loadCap(t *table) int64 {
	if t.routable == 0 {
		return 1 << 62
	}
	var total int64
	for _, b := range t.fleet {
		total += b.Inflight()
	}
	return (total*int64(c.g.loadPct))/(int64(t.routable)*100) + 8
}

// dial opens an upstream to b and starts its relay.
func (c *clientConn) dial(b *Backend) (*upstream, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.Dial("tcp", b.Addr)
	if err != nil {
		return nil, err
	}
	tc := nc.(*net.TCPConn)
	tc.SetNoDelay(false)
	// Deep socket buffers absorb backend backpressure bursts: the forwarder
	// is one goroutine per client, so a write blocking on one backend
	// head-of-line-blocks events bound for the others.
	tc.SetWriteBuffer(1 << 20)
	u := &upstream{b: b, nc: tc, bw: bufio.NewWriterSize(tc, 64<<10)}
	b.conns.Add(1)
	// A resubmitting relay dials too; its own Done has not run, so the
	// WaitGroup cannot be at zero while it adds.
	c.relayWG.Add(1)
	go c.relay(u)
	return u, nil
}

// flush pushes one upstream's staged events onto the wire.
func (c *clientConn) flush(u *upstream) {
	if u.closed.Load() || u.pending == 0 {
		return
	}
	u.pending = 0
	if err := u.bw.Flush(); err != nil {
		c.fail(u, err)
	}
}

// flushAll flushes every upstream in ups with staged events.
func (c *clientConn) flushAll(ups map[*Backend]*upstream) {
	for _, u := range ups {
		c.flush(u)
	}
}

// fail tears an upstream down after a write error. Closing the socket forces
// the relay off its read; the relay's settle resubmits or sheds the charged
// events. The dead upstream stays in its map until a charge finds it closed.
func (c *clientConn) fail(u *upstream, err error) {
	if u.closed.Swap(true) {
		return
	}
	u.pending = 0
	u.nc.Close()
	c.g.markBackendDown(u.b, err)
}

// closeWrite flushes and half-closes an upstream: the backend sees EOF,
// drains its in-flight events, streams the remaining records, then closes —
// the relay runs to completion behind it.
func (c *clientConn) closeWrite(u *upstream) {
	c.flush(u)
	if u.closed.Swap(true) {
		return
	}
	u.halfClosed.Store(true)
	u.nc.CloseWrite()
}

// sweepUpstreams reacts to a table rebuild: upstreams to backends that left
// the ring (draining, detached) are half-closed so the backend can finish
// its in-flight work and the drain can complete.
func (c *clientConn) sweepUpstreams() {
	for b, u := range c.ups {
		if !b.Joined() {
			c.closeWrite(u)
			delete(c.ups, b) // a re-added backend gets a fresh upstream
		}
	}
}

// finish is the graceful teardown after the client stops sending: flush and
// half-close every upstream, let the relays drain the responses, then close
// the downlink.
func (c *clientConn) finish() {
	for b, u := range c.ups {
		c.closeWrite(u)
		delete(c.ups, b)
	}
	c.relayWG.Wait()
	c.wmu.Lock()
	c.bw.Flush()
	c.wmu.Unlock()
	c.nc.CloseWrite()
}

// relay streams one upstream's downlink records back to the client,
// settling whatever never came back when the stream ends.
func (c *clientConn) relay(u *upstream) {
	defer c.relayWG.Done()
	defer u.b.conns.Add(-1)
	defer u.nc.Close()
	sc := adapt.NewRecordScanner(u.nc, nil)
	for {
		rec, err := sc.Next()
		if err != nil {
			c.settle(u, err)
			return
		}
		c.ack(u, adapt.RecordEventID(rec))
		c.writeRecord(rec, sc.Buffered() >= adapt.RecordHeaderBytes)
	}
}

// settle classifies an ended upstream's unanswered events. EOF after the
// gateway's own half-close is clean: the backend consumed them without
// answering (its derandomizer dropped them). So is EOF with nothing held, a
// backend reaping an idle connection. Anything else is a connection failure
// — an error, or an EOF with events held and no half-close, which is all a
// reset leaves the reader once a failing write has taken the socket's error
// — and never-retried events are resubmitted once to a new slot owner,
// already-retried ones shed as failed.
func (c *clientConn) settle(u *upstream, err error) {
	u.mu.Lock()
	u.closed.Store(true)
	held := u.held[u.head:]
	u.held = nil
	u.head = 0
	u.free = nil
	// Classify the remainder while still holding the lock: a forwarder
	// racing charge against this settle either lands its entry in held
	// (settled here) or observes closed and re-picks — the shared critical
	// section is what makes the accounting identity exact.
	left := int64(len(held))
	if left > 0 {
		u.b.inflight.Add(-left)
	}
	clean := err == io.EOF && (left == 0 || u.halfClosed.Load())
	var spent uint64
	var fresh []heldEvent
	if clean {
		if left > 0 {
			u.b.dropped.Add(uint64(left))
		}
	} else {
		fresh = held[:0]
		for i := range held {
			if held[i].retried {
				spent++
			} else {
				fresh = append(fresh, held[i])
			}
		}
		if spent > 0 {
			u.b.failed.Add(spent)
		}
	}
	u.mu.Unlock()
	if clean {
		return
	}
	// Mark the backend down before resubmitting: the rebuild routes the
	// resubmissions' pick away from the connection that just died.
	c.g.markBackendDown(u.b, err)
	if len(fresh) > 0 {
		c.resubmit(fresh, u.b)
	}
}

// resubmit replays never-retried events from a dead upstream to new slot
// owners, one retry each, through send. It runs on the dead upstream's relay
// goroutine; the retry upstreams it dials are private — never in c.ups,
// which the forwarder owns — written, half-closed, and drained by their own
// relays.
func (c *clientConn) resubmit(events []heldEvent, dead *Backend) {
	ups := make(map[*Backend]*upstream, 2)
	for i := range events {
		c.send(ups, events[i].event, events[i].raw, dead)
	}
	for _, u := range ups {
		c.closeWrite(u)
	}
}

// writeRecord relays one record to the client; flushes when the scanner has
// no further complete record buffered (the relay is about to block).
func (c *clientConn) writeRecord(rec []byte, more bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(rec); err != nil {
		return // client gone; the forwarder notices on its own side
	}
	if !more {
		c.bw.Flush()
	}
}
