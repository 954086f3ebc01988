// Package gateway implements hepcclgw's L4 event router: it speaks the ALPHA
// packet protocol on the front, frames events verifying only each event's
// first frame, and consistent-hashes each event by event id across a fleet of hepccld
// backends. Placement uses a stable vnode hash ring flattened into a slot
// table, with bounded-load overflow to ring successors; backend health is
// probed from each hepccld's three-state /healthz, spilling slots away from
// degraded backends, holding-and-retrying (then shedding, with exact
// accounting) on overloaded ones, resubmitting events held on a dead
// backend's connection once to a new slot owner, and supporting draining
// removal and hot re-addition without disturbing the rest of the ring. Responses relay back
// on the client connection that offered the event; per-source FIFO order is
// preserved per backend because one client's events for one backend share a
// single ordered upstream connection.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrGatewayClosed is returned by Serve after Shutdown.
var ErrGatewayClosed = errors.New("gateway: closed")

// BackendSpec names one backend at configuration time.
type BackendSpec struct {
	// Addr is the event-ingest address.
	Addr string
	// StatsAddr is the /healthz HTTP address.
	StatsAddr string
}

// Config parameterizes a Gateway.
type Config struct {
	// Backends is the initial fleet.
	Backends []BackendSpec
	// ASICs is the number of frames composing one event on the wire (the
	// fleet's pipeline geometry; the gateway frames events but never serves).
	ASICs int

	// StatsAddr serves GET /stats, GET /healthz, POST /drain, POST /add.
	// Empty disables.
	StatsAddr string
	// Logger receives one-line operational logs. nil silences them.
	Logger *log.Logger
}

// The gateway's fixed settings. Like the shape of the paper's
// island-detection stage, fixed at synthesis time, none is a runtime option.
const (
	// tableSlots is the routing-table size: a power of two, at least
	// chainLen.
	tableSlots = 512
	// vnodesPerBackend is the ring points each joined backend contributes.
	vnodesPerBackend = 64
	// loadFactorPct bounds per-backend load: a candidate is skipped while its
	// in-flight count exceeds loadFactorPct/100 of the fleet mean (plus a
	// small burst allowance). It must exceed 100: bounded load needs
	// headroom above the mean.
	loadFactorPct = 125
	// probeInterval is the health-poll period; probeTimeout bounds one
	// health request.
	probeInterval = 250 * time.Millisecond
	probeTimeout  = time.Second
	// holdRetries and holdDelay shape overload handling: an event whose
	// whole candidate chain is overloaded is held for up to
	// holdRetries*holdDelay before it is shed.
	holdRetries = 40
	holdDelay   = 5 * time.Millisecond
	// dialTimeout bounds one upstream dial; upstreamWriteTimeout bounds the
	// writes of one staged run of events to an upstream.
	dialTimeout          = 5 * time.Second
	upstreamWriteTimeout = 10 * time.Second
)

// Gateway routes framed events across the backend fleet.
type Gateway struct {
	cfg         Config
	probeClient *http.Client
	// probeEvery and loadPct start at probeInterval and loadFactorPct;
	// in-package tests quicken the one and lift the other.
	probeEvery time.Duration
	loadPct    int

	// mu guards fleet membership and table rebuilds (rebuild reads the
	// fleet slice and swaps table; the forward path only loads table).
	mu       sync.Mutex
	backends []*Backend
	table    atomic.Pointer[table]
	// gen bumps on every rebuild; forwarders re-check their upstream maps
	// when they observe a new generation.
	gen atomic.Uint64
	// clients holds the open client connections, so Shutdown can wake
	// their forwarders and, past its deadline, close them.
	clients map[net.Conn]struct{}

	stats gwStats

	ln       net.Listener
	statsLn  net.Listener
	statsSrv *http.Server

	done     chan struct{}
	closing  atomic.Bool
	connsWG  sync.WaitGroup
	bgWG     sync.WaitGroup
	shutOnce sync.Once
}

// New validates cfg and builds a gateway (not yet serving or probing).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.ASICs < 1 {
		return nil, fmt.Errorf("gateway: ASICs = %d, need >= 1", cfg.ASICs)
	}
	g := &Gateway{
		cfg:         cfg,
		probeClient: &http.Client{Timeout: probeTimeout},
		probeEvery:  probeInterval,
		loadPct:     loadFactorPct,
		clients:     make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, spec := range cfg.Backends {
		if spec.Addr == "" || spec.StatsAddr == "" {
			return nil, fmt.Errorf("gateway: backend needs both addr and stats addr, got %+v", spec)
		}
		if seen[spec.Addr] {
			return nil, fmt.Errorf("gateway: duplicate backend %s", spec.Addr)
		}
		seen[spec.Addr] = true
		g.backends = append(g.backends, newBackend(spec.Addr, spec.StatsAddr))
	}
	return g, nil
}

// fleet returns the current backend slice.
func (g *Gateway) fleet() []*Backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backends
}

// rebuild recomputes the slot table from the current fleet and bumps the
// generation.
func (g *Gateway) rebuild() {
	g.mu.Lock()
	t := buildTable(g.backends, tableSlots, vnodesPerBackend)
	g.table.Store(t)
	g.mu.Unlock()
	g.gen.Add(1)
}

// Serve probes the fleet once (so routing starts from real health, not
// guesses), builds the first table, starts the prober and admin endpoint,
// and accepts client connections until Shutdown.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closing.Load() {
		g.mu.Unlock()
		ln.Close()
		return ErrGatewayClosed
	}
	g.ln = ln
	g.mu.Unlock()

	for _, b := range g.fleet() {
		// Startup probe: retry through probeDownAfter so one blip does not
		// class a live backend down before the first event arrives.
		for i := 0; i < probeDownAfter; i++ {
			if g.probeOnce(b); b.HealthClass() != healthUnknown {
				break
			}
		}
		if b.HealthClass() == healthUnknown {
			b.setHealth(healthDown)
			g.logf("gateway: backend %s unreachable at startup", b.Addr)
		}
	}
	g.rebuild()
	g.bgWG.Add(1)
	go g.runProber()
	g.startStats()

	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if g.closing.Load() {
				g.connsWG.Wait()
				return ErrGatewayClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("gateway: accept: %w", err)
		}
		backoff = 0
		// Register under mu, against Shutdown's sweep: a connection either
		// lands in clients before the sweep or is refused here.
		g.mu.Lock()
		if g.closing.Load() {
			g.mu.Unlock()
			nc.Close()
			continue
		}
		g.clients[nc] = struct{}{}
		g.connsWG.Add(1)
		g.mu.Unlock()
		g.stats.conns.Add(1)
		go g.handleConn(nc)
	}
}

// Shutdown stops accepting, ends ingress on every client connection, waits
// for each to finish its graceful drain — every record it is owed, then EOF
// — and stops the prober and admin endpoint. Connections still open when
// ctx ends are closed.
func (g *Gateway) Shutdown(ctx context.Context) error {
	var err error
	g.shutOnce.Do(func() {
		close(g.done)
		g.mu.Lock()
		g.closing.Store(true)
		if g.ln != nil {
			g.ln.Close()
		}
		// Wake forwarders parked in a client read; with closing set, the
		// read error ends ingress and the forwarder drains through finish.
		for nc := range g.clients {
			nc.SetReadDeadline(time.Now())
		}
		g.mu.Unlock()
		finished := make(chan struct{})
		go func() {
			g.connsWG.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-ctx.Done():
			g.mu.Lock()
			for nc := range g.clients {
				nc.Close()
			}
			g.mu.Unlock()
			err = ctx.Err()
		}
		g.bgWG.Wait()
		if g.statsSrv != nil {
			g.statsSrv.Close()
		}
	})
	return err
}

// Drain begins removing a backend: it stops receiving new assignments
// immediately; in-flight events finish and relay normally; once its
// in-flight count and upstream connections reach zero it detaches. Returns
// the backend or an error if the address is unknown or already leaving.
func (g *Gateway) Drain(addr string) (*Backend, error) {
	g.mu.Lock()
	var b *Backend
	for _, cand := range g.backends {
		if cand.Addr == addr {
			b = cand
			break
		}
	}
	if b == nil {
		g.mu.Unlock()
		return nil, fmt.Errorf("gateway: drain: unknown backend %s", addr)
	}
	if !b.admin.CompareAndSwap(int32(adminJoined), int32(adminDraining)) {
		g.mu.Unlock()
		return nil, fmt.Errorf("gateway: drain: backend %s is %s", addr, b.AdminState())
	}
	g.mu.Unlock()
	g.rebuild()
	g.logf("gateway: backend %s draining", addr)
	g.bgWG.Add(1)
	go g.watchDetach(b)
	return b, nil
}

// watchDetach flips a draining backend to detached once its in-flight count
// and upstream connections hit zero.
func (g *Gateway) watchDetach(b *Backend) {
	defer g.bgWG.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-tick.C:
			if b.Inflight() == 0 && b.conns.Load() == 0 &&
				b.admin.CompareAndSwap(int32(adminDraining), int32(adminDetached)) {
				g.logf("gateway: backend %s detached", b.Addr)
				return
			}
		}
	}
}

// Add hot-adds a backend: a brand-new address joins the fleet, and a
// previously detached (or still-draining) address rejoins in place, keeping
// its counters. The backend is probed synchronously so the rebuilt table
// sees real health.
func (g *Gateway) Add(addr, statsAddr string) (*Backend, error) {
	g.mu.Lock()
	var b *Backend
	for _, cand := range g.backends {
		if cand.Addr == addr {
			b = cand
			break
		}
	}
	if b != nil {
		if b.Joined() {
			g.mu.Unlock()
			return nil, fmt.Errorf("gateway: add: backend %s already joined", addr)
		}
		if statsAddr != "" {
			b.setStatsAddr(statsAddr)
		}
		b.admin.Store(int32(adminJoined))
	} else {
		if statsAddr == "" {
			g.mu.Unlock()
			return nil, fmt.Errorf("gateway: add: %s needs a stats addr", addr)
		}
		b = newBackend(addr, statsAddr)
		g.backends = append(g.backends, b)
	}
	b.probeFails.Store(0)
	g.mu.Unlock()
	g.probeOnce(b)
	if b.HealthClass() == healthUnknown {
		b.setHealth(healthDown)
	}
	g.rebuild()
	g.logf("gateway: backend %s joined (%s)", addr, b.HealthClass())
	return b, nil
}

// markBackendDown is the dial-failure path: the prober will bring the
// backend back when it answers again.
func (g *Gateway) markBackendDown(b *Backend, err error) {
	b.probeFails.Store(probeDownAfter)
	if b.setHealth(healthDown) {
		g.logf("gateway: backend %s down: %v", b.Addr, err)
		g.rebuild()
	}
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logger != nil {
		g.cfg.Logger.Printf(format, args...)
	}
}
