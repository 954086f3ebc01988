package gateway

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/health"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// sinkBackend is a backend ingest port that accepts connections and never
// reads or answers them, so everything forwarded to it stays in flight until
// reset cuts every connection with an RST, as a crashed process would.
type sinkBackend struct {
	ln    net.Listener
	addr  string
	mu    sync.Mutex
	conns []*net.TCPConn
}

func startSinkBackend(t *testing.T) *sinkBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sinkBackend{ln: ln, addr: ln.Addr().String()}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, nc.(*net.TCPConn))
			s.mu.Unlock()
		}
	}()
	t.Cleanup(s.reset)
	return s
}

// reset stops accepting and resets every accepted connection.
func (s *sinkBackend) reset() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, nc := range s.conns {
		nc.SetLinger(0)
		nc.Close()
	}
	s.conns = nil
}

// backendByAddr finds a fleet entry.
func backendByAddr(t *testing.T, g *Gateway, addr string) *Backend {
	t.Helper()
	for _, b := range g.fleet() {
		if b.Addr == addr {
			return b
		}
	}
	t.Fatalf("no backend %s in the fleet", addr)
	return nil
}

// TestGatewayUpstreamWriteFailure resets a backend while the forwarder is
// blocked writing to it: the blocked write fails, the backend is classed
// down, and every event charged to it is resubmitted once to the survivor or
// shed backend_failed, with the identity exact at quiesce.
func TestGatewayUpstreamWriteFailure(t *testing.T) {
	pcfg := adapt.DefaultCTA()
	pcfg.SamplesPerChannel = 4
	const total = 600
	corpus := relayCorpus(t, pcfg, total) // 17 KB per event: ~5 MB for the sink
	survivorAddr, survivorStats := startCannedBackend(t, len(corpus[0]))
	sink := startSinkBackend(t)
	sinkHealth := newFakeBackend(t)
	// Bounded load off, so the sink's unanswered pile-up keeps its slots
	// and the forwarder fills its sockets.
	g := startGatewayCfg(t, func(g *Gateway) {
		g.cfg.ASICs = pcfg.ASICs
		g.loadPct = 100000
	},
		&backendHandle{addr: sink.addr, stats: sinkHealth.addr(), dead: true},
		&backendHandle{addr: survivorAddr, stats: survivorStats, dead: true})
	sinkB := backendByAddr(t, g.Gateway, sink.addr)

	nc, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := collectRecords(nc)
	sent := make(chan error, 1)
	go func() {
		bw := bufio.NewWriterSize(nc, 64<<10)
		for _, ev := range corpus {
			if _, err := bw.Write(ev); err != nil {
				sent <- err
				return
			}
		}
		sent <- bw.Flush()
	}()

	// Wait for the forwarder to stall on the sink's full sockets: offered
	// stops moving short of the total.
	deadline := time.Now().Add(10 * time.Second)
	for last, still := uint64(0), 0; still < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("forwarder never stalled (offered %d, sink inflight %d)", g.stats.offered.Load(), sinkB.Inflight())
		}
		time.Sleep(50 * time.Millisecond)
		if n := g.stats.offered.Load(); n == last && n < total && sinkB.Inflight() > 0 {
			still++
		} else {
			last, still = n, 0
		}
	}
	sinkHealth.srv.Close() // the prober must not class it back up
	sink.reset()

	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).CloseWrite()
	n, ids := rc.wait(t)
	snap := checkIdentity(t, g.Gateway)
	if snap.Offered != total || snap.Inflight != 0 || uint64(n) != snap.Relayed {
		t.Fatalf("offered %d inflight %d relayed %d client records %d, want %d/0/equal",
			snap.Offered, snap.Inflight, snap.Relayed, n, total)
	}
	if snap.Shed.Overload != 0 || snap.Shed.NoBackend != 0 || snap.Shed.BackendDropped != 0 {
		t.Fatalf("shed %+v: a write failure may only resubmit or shed backend_failed", snap.Shed)
	}
	if snap.Retried == 0 {
		t.Fatalf("the reset backend's charged events were not resubmitted: %+v", snap)
	}
	for id, k := range ids {
		if k > 1 {
			t.Fatalf("event %d answered %d times", id, k)
		}
	}
	if h := sinkB.HealthClass(); h != healthDown {
		t.Fatalf("reset backend classed %s, want down", h)
	}
	t.Logf("write failure: offered=%d relayed=%d retried=%d shed=%+v", snap.Offered, snap.Relayed, snap.Retried, snap.Shed)
}

// TestGatewayResubmitFindsNoOwner kills the backend holding a client's events
// while the only other backend is down or overloaded: every resubmission
// sheds, no_backend or overload respectively, each event counted once.
func TestGatewayResubmitFindsNoOwner(t *testing.T) {
	for _, tc := range []struct {
		name  string
		other health.State // "" means unreachable: classed down
		cause func(ShedSnapshot) uint64
	}{
		{"down", "", func(s ShedSnapshot) uint64 { return s.NoBackend }},
		{"overloaded", health.Overloaded, func(s ShedSnapshot) uint64 { return s.Overload }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := startSinkBackend(t)
			sinkHealth := newFakeBackend(t)
			other := newFakeBackend(t)
			if tc.other == "" {
				other.srv.Close()
			} else {
				other.set(tc.other)
			}
			g := startGateway(t,
				&backendHandle{addr: sink.addr, stats: sinkHealth.addr(), dead: true},
				&backendHandle{addr: other.addr() + "#data", stats: other.addr(), dead: true}) // never dialed
			sinkB := backendByAddr(t, g.Gateway, sink.addr)

			const total = 4
			nc, err := net.Dial("tcp", g.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			rc := collectRecords(nc)
			sw := adapt.NewStreamWriter(nc)
			for _, ev := range makeEvents(t, total, 0) {
				if err := sw.WriteEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for sinkB.Inflight() < total {
				if time.Now().After(deadline) {
					t.Fatalf("events never reached the sink (offered %d, inflight %d)", g.stats.offered.Load(), sinkB.Inflight())
				}
				time.Sleep(2 * time.Millisecond)
			}
			sinkHealth.srv.Close()
			sink.reset()
			nc.(*net.TCPConn).CloseWrite()
			n, _ := rc.wait(t)

			snap := checkIdentity(t, g.Gateway)
			if n != 0 || snap.Relayed != 0 || snap.Retried != 0 || snap.Inflight != 0 {
				t.Fatalf("records %d relayed %d retried %d inflight %d, want all 0", n, snap.Relayed, snap.Retried, snap.Inflight)
			}
			if snap.Offered != total || tc.cause(snap.Shed) != total || snap.Shed.Total() != total {
				t.Fatalf("offered %d shed %+v, want %d, each shed %s once", snap.Offered, snap.Shed, total, tc.name)
			}
		})
	}
}

// TestGatewayShutdownIdleClient stops a gateway whose client relayed an event
// and then went quiet without half-closing: Shutdown must wake the forwarder
// parked in its read, drain it, and return well inside its context, and the
// client must see its record and then a clean end of stream.
func TestGatewayShutdownIdleClient(t *testing.T) {
	b := startBackend(t, server.PolicyBlock, "")
	g, err := New(Config{
		ASICs:    testPipeline().ASICs,
		Backends: []BackendSpec{{Addr: b.addr, StatsAddr: b.stats}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := listenLocal(t)
	served := make(chan error, 1)
	go func() { served <- g.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := adapt.NewStreamWriter(nc).WriteEvent(makeEvents(t, 1, 7)[0]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := adapt.NewRecordScanner(nc, nil)
	rec, err := sc.Next()
	if err != nil || adapt.RecordEventID(rec) != 7 {
		t.Fatalf("record before shutdown: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after %v: %v", time.Since(start), err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Shutdown took %v", d)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after its one record the client read %v, want EOF", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, ErrGatewayClosed) {
			t.Fatalf("Serve returned %v, want ErrGatewayClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still blocked after Shutdown")
	}
	snap := checkIdentity(t, g)
	if snap.Offered != 1 || snap.Relayed != 1 || snap.Inflight != 0 || snap.ClientErrors != 0 {
		t.Fatalf("offered %d relayed %d inflight %d client errors %d, want 1/1/0/0",
			snap.Offered, snap.Relayed, snap.Inflight, snap.ClientErrors)
	}
}
