package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/health"
	"github.com/wustl-adapt/hepccl/internal/leakcheck"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// testPipeline keeps events small so end-to-end runs stay fast under -race.
func testPipeline() adapt.Config {
	cfg := adapt.DefaultADAPT()
	cfg.ASICs = 4
	cfg.SamplesPerChannel = 4
	return cfg
}

// backendHandle wraps one in-process hepccld for lifecycle control.
type backendHandle struct {
	srv   *server.Server
	web   *httptest.Server // srv.Handler() on stats
	addr  string
	stats string
	dead  bool
}

// startBackend serves one hepccld on ephemeral ports.
func startBackend(t *testing.T, policy server.OverflowPolicy, listen string) *backendHandle {
	return startPacedBackend(t, policy, listen, 0)
}

// startPacedBackend serves one hepccld throttled to rate events/s (0
// disables) so events pile up in flight — the substrate for killing a
// backend with work outstanding.
func startPacedBackend(t *testing.T, policy server.OverflowPolicy, listen string, rate float64) *backendHandle {
	t.Helper()
	queue := 64
	if rate > 0 {
		// A shallow queue keeps a throttled backend's backlog in the socket,
		// not the derandomizer, so a kill severs with data unread.
		queue = 16
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{
		Pipeline:   testPipeline(),
		Workers:    1,
		QueueDepth: queue,
		Policy:     policy,
		PaceRate:   rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	web := httptest.NewServer(s.Handler())
	h := &backendHandle{srv: s, web: web, addr: ln.Addr().String(), stats: web.Listener.Addr().String()}
	t.Cleanup(func() { h.stop(t) })
	return h
}

// stop drains the backend gracefully (no-op if already stopped).
func (h *backendHandle) stop(t *testing.T) {
	if h.dead {
		return
	}
	h.dead = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx)
	h.web.Close()
}

// kill force-closes the backend: expired context, so live connections are
// cut, not drained.
func (h *backendHandle) kill() {
	h.dead = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.srv.Shutdown(ctx)
	h.web.Close()
}

// listenLocal binds a loopback listener on an ephemeral port.
func listenLocal(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// testGateway is a serving gateway and its client-facing address.
type testGateway struct {
	*Gateway
	addr string
}

// startGateway serves a gateway over the handles with fast probe cadence.
func startGateway(t *testing.T, handles ...*backendHandle) *testGateway {
	return startGatewayCfg(t, nil, handles...)
}

// startGatewayCfg is startGateway with a hook that may retune the gateway's
// unexported fields after New and before Serve.
func startGatewayCfg(t *testing.T, mut func(*Gateway), handles ...*backendHandle) *testGateway {
	t.Helper()
	cfg := Config{ASICs: testPipeline().ASICs}
	for _, h := range handles {
		cfg.Backends = append(cfg.Backends, BackendSpec{Addr: h.addr, StatsAddr: h.stats})
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.probeEvery = 20 * time.Millisecond
	if mut != nil {
		mut(g)
	}
	ln := listenLocal(t)
	done := make(chan error, 1)
	go func() { done <- g.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, ErrGatewayClosed) {
			t.Errorf("Serve returned %v, want ErrGatewayClosed", err)
		}
	})
	return &testGateway{Gateway: g, addr: ln.Addr().String()}
}

// makeEvents digitizes n tracker events with ids base..base+n-1.
func makeEvents(t testing.TB, n int, base uint32) [][]adapt.Packet {
	t.Helper()
	cfg := testPipeline()
	rng := detector.NewRNG(uint64(base) + 7)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	tracker := detector.DefaultTracker()
	tracker.Channels = cfg.ASICs * adapt.ChannelsPerASIC
	tracker.Threshold = 0
	events := make([][]adapt.Packet, n)
	for i := range events {
		ev, err := adapt.GenerateEvent(tracker.Event(rng).Values, cfg.ASICs,
			base+uint32(i), uint64(i), dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = ev
	}
	return events
}

// recordCollector drains a client's downlink concurrently with sending.
type recordCollector struct {
	mu  sync.Mutex
	ids map[uint32]int
	n   int
	err error
	wg  sync.WaitGroup
}

func collectRecords(nc net.Conn) *recordCollector {
	rc := &recordCollector{ids: map[uint32]int{}}
	rc.wg.Add(1)
	go func() {
		defer rc.wg.Done()
		sc := adapt.NewRecordScanner(nc, nil)
		for {
			rec, err := sc.Next()
			if err != nil {
				if err != io.EOF {
					rc.mu.Lock()
					rc.err = err
					rc.mu.Unlock()
				}
				return
			}
			rc.mu.Lock()
			rc.ids[adapt.RecordEventID(rec)]++
			rc.n++
			rc.mu.Unlock()
		}
	}()
	return rc
}

func (rc *recordCollector) wait(t *testing.T) (int, map[uint32]int) {
	t.Helper()
	rc.wg.Wait()
	if rc.err != nil {
		t.Fatalf("record stream: %v", rc.err)
	}
	return rc.n, rc.ids
}

// checkIdentity asserts the exact accounting contract at quiesce.
func checkIdentity(t *testing.T, g *Gateway) FleetSnapshot {
	t.Helper()
	snap := g.StatsSnapshot()
	if snap.Offered != snap.Relayed+snap.Shed.Total()+uint64(snap.Inflight) {
		t.Fatalf("accounting identity broken: offered %d != relayed %d + shed %d + inflight %d",
			snap.Offered, snap.Relayed, snap.Shed.Total(), snap.Inflight)
	}
	// Retried is supplementary (resubmissions, not a terminal bucket), but
	// one-retry-per-event bounds it by what was offered.
	if snap.Retried > snap.Offered {
		t.Fatalf("retried %d exceeds offered %d", snap.Retried, snap.Offered)
	}
	return snap
}

// TestGatewayEndToEnd routes two clients' events across two backends and
// checks every event comes back on the connection that offered it.
func TestGatewayEndToEnd(t *testing.T) {
	b0 := startBackend(t, server.PolicyBlock, "")
	b1 := startBackend(t, server.PolicyBlock, "")
	g := startGateway(t, b0, b1)

	const perClient = 200
	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			events := makeEvents(t, perClient, uint32(ci*100000))
			nc, err := net.Dial("tcp", g.addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			rc := collectRecords(nc)
			sw := adapt.NewStreamWriter(nc)
			for _, ev := range events {
				if err := sw.WriteEvent(ev); err != nil {
					t.Error(err)
					return
				}
			}
			nc.(*net.TCPConn).CloseWrite()
			n, ids := rc.wait(t)
			if n != perClient {
				t.Errorf("client %d: %d records, want %d", ci, n, perClient)
				return
			}
			for _, ev := range events {
				id := uint32(0)
				// event id lives in every frame; take it from the first.
				id = ev[0].Event
				if ids[id] != 1 {
					t.Errorf("client %d: event %d answered %d times", ci, id, ids[id])
					return
				}
			}
		}(ci)
	}
	wg.Wait()

	snap := checkIdentity(t, g.Gateway)
	if snap.Offered != 2*perClient || snap.Relayed != 2*perClient || snap.Shed.Total() != 0 {
		t.Fatalf("offered %d relayed %d shed %d, want %d/%d/0",
			snap.Offered, snap.Relayed, snap.Shed.Total(), 2*perClient, 2*perClient)
	}
	for _, bs := range snap.Backends {
		if bs.Forwarded == 0 {
			t.Fatalf("backend %s got no traffic: %+v", bs.Addr, snap.Backends)
		}
	}
}

// TestGatewayDropsCorruptFirstFrame: the forwarder checksums each event's
// first frame, so an event whose first frame is corrupted on the client link
// costs one client error at the gateway and is never offered to a backend,
// while its neighbours relay untouched.
func TestGatewayDropsCorruptFirstFrame(t *testing.T) {
	g := startGateway(t, startBackend(t, server.PolicyBlock, ""))
	events := makeEvents(t, 3, 0)
	nc, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := collectRecords(nc)
	var stream []byte
	for i, ev := range events {
		for p := range ev {
			f, err := ev[p].Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && p == 0 {
				f[len(f)/2] ^= 0x01
			}
			stream = append(stream, f...)
		}
	}
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).CloseWrite()
	n, ids := rc.wait(t)
	snap := checkIdentity(t, g.Gateway)
	if n != 2 || ids[0] != 1 || ids[2] != 1 {
		t.Fatalf("%d records %v, want events 0 and 2 answered once each", n, ids)
	}
	if snap.Offered != 2 || snap.ClientErrors != 1 || snap.Shed.Total() != 0 {
		t.Fatalf("offered %d client errors %d shed %d, want 2/1/0", snap.Offered, snap.ClientErrors, snap.Shed.Total())
	}
}

// TestGatewayDrainZeroLoss drains a backend in the middle of a stream and
// hot re-adds it: every offered event must still be answered — drain means
// finish-in-flight, not shed — and the re-added backend must take traffic
// again.
func TestGatewayDrainZeroLoss(t *testing.T) {
	leakcheck.Check(t)
	b0 := startBackend(t, server.PolicyBlock, "")
	b1 := startBackend(t, server.PolicyBlock, "")
	g := startGateway(t, b0, b1)

	const phase = 300
	events := makeEvents(t, 3*phase, 0)
	nc, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := collectRecords(nc)
	sw := adapt.NewStreamWriter(nc)
	send := func(evs [][]adapt.Packet) {
		t.Helper()
		for _, ev := range evs {
			if err := sw.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	send(events[:phase])
	admin := httptest.NewServer(g.Handler())
	defer admin.Close()

	// Drain via the admin endpoint (exercising the HTTP handler too).
	resp, err := http.Post(fmt.Sprintf("%s/drain?addr=%s", admin.URL, b0.addr), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d", resp.StatusCode)
	}
	var drained *Backend
	for _, b := range g.fleet() {
		if b.Addr == b0.addr {
			drained = b
		}
	}

	// Keep streaming: the forwarder notices the rebuild, half-closes its
	// upstream to b0, and b0 finishes its in-flight work.
	send(events[phase : 2*phase])
	deadline := time.Now().Add(5 * time.Second)
	for drained.AdminState() != adminDetached {
		if time.Now().After(deadline) {
			t.Fatalf("backend never detached (state %s inflight %d conns %d)",
				drained.AdminState(), drained.Inflight(), drained.conns.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hot re-add and stream the final phase; b0 must serve again.
	forwardedAtReadd := drained.forwarded.Load()
	resp, err = http.Post(fmt.Sprintf("%s/add?addr=%s&stats=%s", admin.URL, b0.addr, b0.stats), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: HTTP %d", resp.StatusCode)
	}
	send(events[2*phase:])
	nc.(*net.TCPConn).CloseWrite()

	n, ids := rc.wait(t)
	if n != 3*phase {
		t.Fatalf("%d records, want %d (zero loss through drain + re-add)", n, 3*phase)
	}
	for _, ev := range events {
		if ids[ev[0].Event] != 1 {
			t.Fatalf("event %d answered %d times", ev[0].Event, ids[ev[0].Event])
		}
	}
	snap := checkIdentity(t, g.Gateway)
	if snap.Shed.Total() != 0 || snap.Inflight != 0 {
		t.Fatalf("shed %d inflight %d, want 0/0", snap.Shed.Total(), snap.Inflight)
	}
	// The fleet totals are the per-backend counts summed, and the re-added
	// backend is the same fleet entry with the counts it had before.
	var sum BackendSnapshot
	for _, b := range snap.Backends {
		sum.Relayed += b.Relayed
		sum.Inflight += b.Inflight
		sum.Failed += b.Failed
		sum.Dropped += b.Dropped
	}
	if len(snap.Backends) != 2 || snap.Relayed != 3*phase || snap.Relayed != sum.Relayed ||
		snap.Inflight != sum.Inflight || snap.Shed.BackendFailed != sum.Failed || snap.Shed.BackendDropped != sum.Dropped {
		t.Fatalf("fleet relayed %d inflight %d shed failed %d dropped %d over %d backends; the backends sum to %+v",
			snap.Relayed, snap.Inflight, snap.Shed.BackendFailed, snap.Shed.BackendDropped, len(snap.Backends), sum)
	}
	if drained.forwarded.Load() == forwardedAtReadd {
		t.Fatal("re-added backend took no traffic")
	}
}

// crashProxy forwards TCP bytes to a backend and converts any backend-side
// termination into an RST toward its clients — an in-process kill() lets the
// dying server's conn teardown FIN gracefully, which a real process crash
// never does, and the gateway rightly treats a clean EOF as "backend dropped
// these", not "backend died". The proxy restores crash semantics.
type crashProxy struct {
	ln   net.Listener
	addr string
}

func startCrashProxy(t *testing.T, target string) *crashProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &crashProxy{ln: ln, addr: ln.Addr().String()}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			tc := nc.(*net.TCPConn)
			up, err := net.Dial("tcp", target)
			if err != nil {
				tc.SetLinger(0)
				tc.Close()
				continue
			}
			ut := up.(*net.TCPConn)
			go func() { // client -> backend: graceful half-close forwards
				io.Copy(ut, tc)
				ut.CloseWrite()
			}()
			go func() { // backend -> client: ANY end is a crash: RST out
				io.Copy(tc, ut)
				tc.SetLinger(0)
				tc.Close()
				ut.Close()
			}()
		}
	}()
	return p
}

// TestHandlerHealthz: the admin /healthz answers 503 while nothing is
// routable — JSON under ?verbose, the bare state line otherwise — and 200
// once the fleet is whole.
func TestHandlerHealthz(t *testing.T) {
	dead := listenLocal(t)
	deadAddr := dead.Addr().String()
	dead.Close()
	stranded := startGateway(t, &backendHandle{addr: deadAddr, stats: deadAddr, dead: true})
	whole := startGateway(t, startBackend(t, server.PolicyBlock, ""))
	deadline := time.Now().Add(5 * time.Second)
	for whole.StatsSnapshot().Health != health.OK {
		if time.Now().After(deadline) {
			t.Fatalf("gateway over a live backend never reported ok: %+v", whole.StatsSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, tc := range []struct {
		name  string
		g     *Gateway
		query string
		code  int
		ctype string
		state health.State
	}{
		{"overloaded/verbose", stranded.Gateway, "?verbose=1", http.StatusServiceUnavailable, "application/json", health.Overloaded},
		{"overloaded", stranded.Gateway, "", http.StatusServiceUnavailable, "text/plain; charset=utf-8", health.Overloaded},
		{"ok", whole.Gateway, "", http.StatusOK, "text/plain; charset=utf-8", health.OK},
	} {
		code, ctype, body := getHealthz(t, tc.g.Handler(), tc.query)
		state := health.State(strings.TrimSpace(string(body)))
		if tc.query != "" {
			var snap FleetSnapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("%s: body %q: %v", tc.name, body, err)
			}
			state = snap.Health
		}
		if code != tc.code || ctype != tc.ctype || state != tc.state {
			t.Errorf("%s: %d %q %q, want %d %q %q", tc.name, code, ctype, state, tc.code, tc.ctype, tc.state)
		}
	}
}

// getHealthz serves h and returns one GET /healthz<query> as a client sees
// it.
func getHealthz(t *testing.T, h http.Handler, query string) (code int, ctype string, body []byte) {
	t.Helper()
	web := httptest.NewServer(h)
	defer web.Close()
	resp, err := http.Get(web.URL + "/healthz" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestGatewayRetryOnBackendDeath kills a slow backend with events piled up
// in flight and requires zero loss: every held event must be resubmitted to
// the surviving backend and answered exactly once, with nothing shed and the
// retried counter accounting for the resubmissions.
func TestGatewayRetryOnBackendDeath(t *testing.T) {
	// b0 paced slow so events pile up on it, fronted by the crash proxy so
	// its death reaches the gateway as an RST; b1 unpaced takes the retries.
	// Bounded load is effectively off so the pile-up stays on b0.
	b0 := startPacedBackend(t, server.PolicyBlock, "", 200)
	proxy := startCrashProxy(t, b0.addr)
	front := &backendHandle{srv: b0.srv, addr: proxy.addr, stats: b0.stats, dead: true}
	b1 := startBackend(t, server.PolicyBlock, "")
	g := startGatewayCfg(t, func(g *Gateway) { g.loadPct = 100000 }, front, b1)

	const total = 400
	events := makeEvents(t, total, 0)
	nc, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := collectRecords(nc)
	sw := adapt.NewStreamWriter(nc)
	for _, ev := range events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}

	// Kill b0 once the whole stream is placed and it demonstrably holds a
	// backlog. The crash proxy turns its death into an RST on the gateway's
	// upstream, exactly like a crashed process.
	var killed *Backend
	for _, b := range g.fleet() {
		if b.Addr == proxy.addr {
			killed = b
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.stats.offered.Load() < total || killed.Inflight() < 80 {
		if time.Now().After(deadline) {
			t.Fatalf("slow backend never accumulated a backlog (offered %d, inflight %d)",
				g.stats.offered.Load(), killed.Inflight())
		}
		time.Sleep(2 * time.Millisecond)
	}
	b0.kill()

	nc.(*net.TCPConn).CloseWrite()
	n, ids := rc.wait(t)
	snap := checkIdentity(t, g.Gateway)
	if snap.Retried == 0 {
		t.Fatalf("killing a backend with in-flight events must resubmit them: %+v", snap)
	}
	if n != total || snap.Relayed != total || snap.Shed.Total() != 0 {
		t.Fatalf("records=%d relayed=%d shed=%+v, want %d/%d/none — backend death must not lose held events",
			n, snap.Relayed, snap.Shed, total, total)
	}
	for _, ev := range events {
		if ids[ev[0].Event] != 1 {
			t.Fatalf("event %d answered %d times; retry must never duplicate", ev[0].Event, ids[ev[0].Event])
		}
	}
	t.Logf("retry: offered=%d relayed=%d retried=%d", snap.Offered, snap.Relayed, snap.Retried)
}

// TestGatewaySoak is the chaos smoke: a client streams continuously while
// one backend is hard-killed mid-run and later re-added on the same address.
// The accounting identity must hold exactly: every offered event is either
// relayed or accounted shed, none vanish. Scale with GW_SOAK_EVENTS.
func TestGatewaySoak(t *testing.T) {
	perPhase := 400
	if v := os.Getenv("GW_SOAK_EVENTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 3 {
			t.Fatalf("bad GW_SOAK_EVENTS %q", v)
		}
		perPhase = n / 3
	}
	b0 := startBackend(t, server.PolicyBlock, "")
	b1 := startBackend(t, server.PolicyBlock, "")
	g := startGateway(t, b0, b1)

	events := makeEvents(t, 3*perPhase, 0)
	nc, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc := collectRecords(nc)
	sw := adapt.NewStreamWriter(nc)
	send := func(evs [][]adapt.Packet) {
		t.Helper()
		for _, ev := range evs {
			if err := sw.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	send(events[:perPhase])
	killedAddr := b0.addr

	// Kill b0 while phase two is streaming: the relay settles the severed
	// upstream (shedding its in-flight with accounting), the prober marks
	// the backend down, and subsequent events spill to b1.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(3 * time.Millisecond)
		b0.kill()
	}()
	send(events[perPhase : 2*perPhase])
	<-killDone

	// Re-add: a fresh backend process on the same address.
	reborn := startBackend(t, server.PolicyBlock, killedAddr)
	if reborn.addr != killedAddr {
		t.Fatalf("rebind got %s, want %s", reborn.addr, killedAddr)
	}
	// Point the existing fleet entry at the reborn stats endpoint. (Add on
	// a joined backend is rejected; the prober just needs the new address
	// and a successful probe to bring it back from down.)
	var killed *Backend
	for _, b := range g.fleet() {
		if b.Addr == killedAddr {
			killed = b
		}
	}
	killed.setStatsAddr(reborn.stats)
	deadline := time.Now().Add(5 * time.Second)
	for killed.HealthClass() != healthGood {
		if time.Now().After(deadline) {
			t.Fatalf("killed backend never recovered (health %s)", killed.HealthClass())
		}
		time.Sleep(5 * time.Millisecond)
	}

	send(events[2*perPhase:])
	nc.(*net.TCPConn).CloseWrite()
	n, ids := rc.wait(t)

	snap := checkIdentity(t, g.Gateway)
	if snap.Inflight != 0 {
		t.Fatalf("inflight %d after quiesce", snap.Inflight)
	}
	if uint64(n) != snap.Relayed {
		t.Fatalf("client saw %d records, gateway relayed %d", n, snap.Relayed)
	}
	if snap.Offered != uint64(3*perPhase) {
		t.Fatalf("offered %d, want %d", snap.Offered, 3*perPhase)
	}
	// The kill may shed events (severed retries, events routed in the
	// window before the prober reacts) but must never lose one silently.
	if snap.Relayed+snap.Shed.Total() != snap.Offered {
		t.Fatalf("lost events: offered %d relayed %d shed %d",
			snap.Offered, snap.Relayed, snap.Shed.Total())
	}
	// Resubmission must never answer one event twice.
	for id, k := range ids {
		if k > 1 {
			t.Fatalf("event %d answered %d times", id, k)
		}
	}
	if killed.forwarded.Load() == 0 {
		t.Fatal("killed backend never took traffic")
	}
	t.Logf("soak: offered=%d relayed=%d retried=%d shed=%+v",
		snap.Offered, snap.Relayed, snap.Retried, snap.Shed)
}
