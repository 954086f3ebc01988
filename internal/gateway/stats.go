package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"github.com/wustl-adapt/hepccl/internal/health"
)

// gwStats is the gateway-level accounting. Every offered event lands in
// exactly one terminal bucket (relayed or one of the sheds) or is in flight.
// retried is supplementary, not a bucket: it counts events resubmitted to a
// new owner after a backend death, each of which still terminates exactly
// once — so offered == relayed + shed + inflight holds with retries active.
// The //hepccl:accounted fields are the identity's terms; acctproto requires
// every mutation to hold the charging upstream's //hepccl:acctmu mutex, or to
// carry a //hepccl:checked justification for why no charge/settle race exists
// (the pre-placement sheds, charged before any upstream does).
type gwStats struct {
	offered            atomic.Uint64 //hepccl:accounted
	relayed            atomic.Uint64 //hepccl:accounted
	retried            atomic.Uint64
	shedOverload       atomic.Uint64 //hepccl:accounted
	shedNoBackend      atomic.Uint64 //hepccl:accounted
	shedBackendFailed  atomic.Uint64 //hepccl:accounted
	shedBackendDropped atomic.Uint64 //hepccl:accounted
	clientErrors       atomic.Uint64
	inflight           atomic.Int64 //hepccl:accounted
	conns              atomic.Int64
}

// ShedSnapshot breaks shed events out by cause.
type ShedSnapshot struct {
	// Overload: the whole candidate chain stayed overloaded through
	// hold-and-retry.
	Overload uint64 `json:"overload"`
	// NoBackend: no routable backend existed when the event arrived.
	NoBackend uint64 `json:"no_backend"`
	// BackendFailed: charged to a backend whose connection dialed, wrote,
	// or read out with an error before answering.
	BackendFailed uint64 `json:"backend_failed"`
	// BackendDropped: the backend consumed the event and closed cleanly
	// without answering it (its derandomizer dropped it).
	BackendDropped uint64 `json:"backend_dropped"`
}

// Total sums the shed causes.
func (s ShedSnapshot) Total() uint64 {
	return s.Overload + s.NoBackend + s.BackendFailed + s.BackendDropped
}

// FleetSnapshot is the aggregated /stats document.
type FleetSnapshot struct {
	Offered uint64 `json:"offered"`
	Relayed uint64 `json:"relayed"`
	// Retried counts events resubmitted once to a new slot owner after a
	// backend death severed the connection holding them.
	Retried      uint64       `json:"retried"`
	Shed         ShedSnapshot `json:"shed"`
	Inflight     int64        `json:"inflight"`
	ClientErrors uint64       `json:"client_errors"`
	Conns        int64        `json:"conns"`
	// Routable and Joined describe the live routing table.
	Routable int               `json:"routable_backends"`
	Joined   int               `json:"joined_backends"`
	Health   health.State      `json:"health"`
	Backends []BackendSnapshot `json:"backends"`
}

// StatsSnapshot captures the fleet accounting and per-backend detail.
func (g *Gateway) StatsSnapshot() FleetSnapshot {
	snap := FleetSnapshot{
		Offered: g.stats.offered.Load(),
		Relayed: g.stats.relayed.Load(),
		Retried: g.stats.retried.Load(),
		Shed: ShedSnapshot{
			Overload:       g.stats.shedOverload.Load(),
			NoBackend:      g.stats.shedNoBackend.Load(),
			BackendFailed:  g.stats.shedBackendFailed.Load(),
			BackendDropped: g.stats.shedBackendDropped.Load(),
		},
		Inflight:     g.stats.inflight.Load(),
		ClientErrors: g.stats.clientErrors.Load(),
		Conns:        g.stats.conns.Load(),
	}
	t := g.table.Load()
	slotsOf := map[*Backend]int{}
	if t != nil {
		snap.Routable = t.routable
		snap.Joined = t.joined
		for i := range t.slots {
			sc := &t.slots[i]
			if sc.n > 0 {
				slotsOf[sc.bs[sc.primary]]++
			}
		}
	}
	for _, b := range g.fleet() {
		bs := b.snapshot()
		bs.Slots = slotsOf[b]
		snap.Backends = append(snap.Backends, bs)
	}
	snap.Health = snap.healthState()
	return snap
}

// healthState folds the fleet into the gateway's own three-state health:
// overloaded (503) when nothing is routable, degraded when the fleet is
// impaired but serving, ok otherwise.
func (s FleetSnapshot) healthState() health.State {
	if s.Routable == 0 {
		return health.Overloaded
	}
	for _, b := range s.Backends {
		if b.State != adminJoined.String() || b.Health != healthGood.String() {
			return health.Degraded
		}
	}
	return health.OK
}

// startStats serves the admin endpoint: GET /stats, GET /healthz,
// POST /drain?addr=..., POST /add?addr=...&stats=...
func (g *Gateway) startStats() {
	if g.cfg.StatsAddr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(g.StatsSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := g.StatsSnapshot()
		if snap.Health == health.Overloaded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if r.URL.Query().Get("verbose") != "" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
			return
		}
		fmt.Fprintln(w, snap.Health)
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		b, err := g.Drain(r.URL.Query().Get("addr"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "draining %s (inflight %d)\n", b.Addr, b.Inflight())
	})
	mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		b, err := g.Add(r.URL.Query().Get("addr"), r.URL.Query().Get("stats"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "joined %s (%s)\n", b.Addr, b.HealthClass())
	})
	ln, err := net.Listen("tcp", g.cfg.StatsAddr)
	if err != nil {
		g.logf("gateway: stats endpoint: %v", err)
		return
	}
	g.mu.Lock()
	g.statsLn = ln
	g.mu.Unlock()
	g.statsSrv = &http.Server{Handler: mux}
	go func() {
		if err := g.statsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			g.logf("gateway: stats endpoint: %v", err)
		}
	}()
}

// AdminAddr returns the admin endpoint's address, or nil when disabled or
// not yet serving.
func (g *Gateway) AdminAddr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.statsLn == nil {
		return nil
	}
	return g.statsLn.Addr()
}
