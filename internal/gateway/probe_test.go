package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/health"
)

// fakeBackend is an httptest /healthz endpoint whose reported state the test
// walks through the three health states.
type fakeBackend struct {
	mu    sync.Mutex
	state health.State
	srv   *httptest.Server
}

func newFakeBackend(t *testing.T) *fakeBackend {
	fb := &fakeBackend{state: health.OK}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		st := fb.state
		fb.mu.Unlock()
		snap := health.Snapshot{State: st, LossFraction: 0.5, WindowSeconds: 0.25}
		if st == health.Overloaded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(snap)
	})
	fb.srv = httptest.NewServer(mux)
	t.Cleanup(fb.srv.Close)
	return fb
}

func (fb *fakeBackend) set(st health.State) {
	fb.mu.Lock()
	fb.state = st
	fb.mu.Unlock()
}

func (fb *fakeBackend) addr() string { return fb.srv.Listener.Addr().String() }

// probeGateway builds a gateway over fake health endpoints (the data
// addresses are never dialed), probes once, and builds the first table.
func probeGateway(t *testing.T, fakes ...*fakeBackend) *Gateway {
	t.Helper()
	cfg := Config{ASICs: 4}
	for i, fb := range fakes {
		cfg.Backends = append(cfg.Backends, BackendSpec{
			Addr:      fb.addr() + "#data" + string(rune('a'+i)), // unique, never dialed
			StatsAddr: fb.addr(),
		})
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.probeAll()
	g.rebuild()
	return g
}

// slotsOwnedBy counts slots whose (health-spilled) primary is b.
func slotsOwnedBy(g *Gateway, b *Backend) int {
	t := g.table.Load()
	n := 0
	for i := range t.slots {
		sc := &t.slots[i]
		if sc.n > 0 && sc.bs[sc.primary] == b {
			n++
		}
	}
	return n
}

// TestProberStateWalk walks one backend of three through
// ok -> degraded -> overloaded -> ok and asserts the routing consequences
// at each step: spillover on degraded, forward-path refusal (not table
// eviction) on overloaded, exact slot restoration on recovery. It then
// drains the backend and checks removal plus detach, and hot re-adds it.
func TestProberStateWalk(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := probeGateway(t, fakes...)
	fleet := g.fleet()
	walker := fleet[1]

	// ok: everyone owns a share and the whole fleet is routable.
	base := slotsOwnedBy(g, walker)
	if base == 0 {
		t.Fatal("healthy backend owns no slots")
	}
	if got := g.table.Load().routable; got != 3 {
		t.Fatalf("routable = %d, want 3", got)
	}
	baseline := map[int]*Backend{}
	tab := g.table.Load()
	for s := range tab.slots {
		baseline[s] = tab.slots[s].bs[tab.slots[s].primary]
	}

	// degraded: primaries spill to ring successors; chain keeps the backend;
	// slots not owned by the walker do not move.
	fakes[1].set(health.Degraded)
	g.probeAll()
	if walker.HealthClass() != healthDegraded {
		t.Fatalf("health = %s, want degraded", walker.HealthClass())
	}
	if n := slotsOwnedBy(g, walker); n != 0 {
		t.Fatalf("degraded backend still owns %d slots", n)
	}
	tab = g.table.Load()
	for s := range tab.slots {
		if baseline[s] != walker && tab.slots[s].bs[tab.slots[s].primary] != baseline[s] {
			t.Fatalf("slot %d moved though its owner stayed healthy", s)
		}
	}

	// overloaded: table treatment identical to degraded (still routable,
	// spilled); the per-event forward path is what refuses it, which pick()
	// models directly.
	fakes[1].set(health.Overloaded)
	g.probeAll()
	if walker.HealthClass() != healthOverloaded {
		t.Fatalf("health = %s, want overloaded", walker.HealthClass())
	}
	if got := g.table.Load().routable; got != 3 {
		t.Fatalf("overloaded backend must stay routable, routable = %d", got)
	}
	cc := &clientConn{g: g}
	tab = g.table.Load()
	for ev := uint32(0); ev < 4096; ev++ {
		if b := cc.pick(tab, ev); b == walker {
			t.Fatalf("pick chose the overloaded backend for event %d", ev)
		}
	}

	// recovered: exact slot restoration (consistent-hashing stability).
	fakes[1].set(health.OK)
	g.probeAll()
	if n := slotsOwnedBy(g, walker); n != base {
		t.Fatalf("recovered backend owns %d slots, owned %d before", n, base)
	}
	tab = g.table.Load()
	for s := range tab.slots {
		if tab.slots[s].bs[tab.slots[s].primary] != baseline[s] {
			t.Fatalf("slot %d not restored after recovery", s)
		}
	}

	// drain: leaves the ring immediately, detaches once idle, and the other
	// backends' slots still do not move.
	if _, err := g.Drain(walker.Addr); err != nil {
		t.Fatal(err)
	}
	if n := slotsOwnedBy(g, walker); n != 0 {
		t.Fatalf("draining backend still owns %d slots", n)
	}
	tab = g.table.Load()
	for s := range tab.slots {
		for j := int8(0); j < tab.slots[s].n; j++ {
			if tab.slots[s].bs[j] == walker {
				t.Fatalf("draining backend still in slot %d chain", s)
			}
		}
		if baseline[s] != walker && tab.slots[s].bs[tab.slots[s].primary] != baseline[s] {
			t.Fatalf("slot %d moved on unrelated drain", s)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for walker.AdminState() != adminDetached {
		if time.Now().After(deadline) {
			t.Fatalf("drained backend never detached (state %s)", walker.AdminState())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// hot re-add: exact restoration again.
	if _, err := g.Add(walker.Addr, walker.StatsAddr()); err != nil {
		t.Fatal(err)
	}
	if n := slotsOwnedBy(g, walker); n != base {
		t.Fatalf("re-added backend owns %d slots, owned %d before", n, base)
	}

	close(g.done) // stop watchDetach pollers
	g.bgWG.Wait()
}

// TestProberDown verifies consecutive probe failures class a backend down
// and remove it from the ring, and that a successful probe brings it back.
func TestProberDown(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := probeGateway(t, fakes...)
	walker := g.fleet()[1]

	fakes[1].srv.Close() // now unreachable
	for i := 0; i < probeDownAfter; i++ {
		g.probeAll()
	}
	if walker.HealthClass() != healthDown {
		t.Fatalf("health = %s after %d failed probes, want down", walker.HealthClass(), probeDownAfter)
	}
	if got := g.table.Load().routable; got != 1 {
		t.Fatalf("routable = %d, want 1", got)
	}
	if n := slotsOwnedBy(g, walker); n != 0 {
		t.Fatalf("down backend still owns %d slots", n)
	}
}
