package gateway

import (
	"sync/atomic"

	"github.com/wustl-adapt/hepccl/internal/health"
)

// Backend lifecycle has two independent axes:
//
//   - admin state, set by operators (or the gateway itself on dial failure):
//     joined -> draining -> detached, with detached -> joined on hot re-add.
//     Draining means "stop assigning, finish in-flight"; detached means the
//     in-flight count hit zero and the last upstream connection closed.
//
//   - health class, set by the prober from the backend's three-state
//     /healthz?verbose=1: good, degraded, overloaded, or down (unreachable).
//     Degraded spills slots at rebuild; overloaded is handled per event on
//     the forward path; down removes the backend from the ring until probes
//     succeed again.

// adminState is the operator-controlled lifecycle axis.
type adminState int32

const (
	adminJoined adminState = iota
	adminDraining
	adminDetached
)

func (a adminState) String() string {
	switch a {
	case adminJoined:
		return "joined"
	case adminDraining:
		return "draining"
	default:
		return "detached"
	}
}

// healthClass is the prober-controlled axis.
type healthClass int32

const (
	// healthUnknown is the pre-first-probe state; the gateway probes every
	// backend synchronously at startup and on add, so routing never sees it.
	healthUnknown healthClass = iota
	healthGood
	healthDegraded
	healthOverloaded
	healthDown
)

func (h healthClass) String() string {
	switch h {
	case healthGood:
		return "ok"
	case healthDegraded:
		return "degraded"
	case healthOverloaded:
		return "overloaded"
	case healthDown:
		return "down"
	default:
		return "unknown"
	}
}

// Backend is one hepccld instance in the fleet.
type Backend struct {
	// Addr is the data-plane (event ingest) address.
	Addr string
	// statsAddr is the HTTP address probed for /healthz; atomic because a
	// hot re-add may repoint it while the prober is mid-cycle.
	statsAddr atomic.Pointer[string]

	admin  atomic.Int32
	health atomic.Int32
	// snap holds the last decoded verbose health snapshot for /stats.
	snap atomic.Pointer[health.Snapshot]
	// probeFails counts consecutive probe errors; at probeDownAfter the
	// backend is classed down.
	probeFails atomic.Int32

	// forwarded counts events written toward this backend; relayed counts
	// records returned and relayed to clients; inflight is their difference
	// plus any events staged in upstream write buffers.
	forwarded atomic.Uint64
	relayed   atomic.Uint64
	inflight  atomic.Int64
	// failed counts events charged to this backend on connection errors;
	// dropped counts events the backend consumed but never answered (its
	// derandomizer dropped them under PolicyDrop).
	failed  atomic.Uint64
	dropped atomic.Uint64
	// conns counts live upstream connections to this backend.
	conns atomic.Int64
}

// newBackend builds a joined, not-yet-probed backend.
func newBackend(addr, statsAddr string) *Backend {
	b := &Backend{Addr: addr}
	b.setStatsAddr(statsAddr)
	return b
}

// StatsAddr returns the HTTP address probed for /healthz.
func (b *Backend) StatsAddr() string { return *b.statsAddr.Load() }

// setStatsAddr repoints the health endpoint (hot re-add).
func (b *Backend) setStatsAddr(addr string) { b.statsAddr.Store(&addr) }

// Joined reports whether the backend participates in the ring (admin axis).
func (b *Backend) Joined() bool { return adminState(b.admin.Load()) == adminJoined }

// AdminState returns the operator-controlled lifecycle state.
func (b *Backend) AdminState() adminState { return adminState(b.admin.Load()) }

// HealthClass returns the probed health class.
//
//hepccl:hotpath
func (b *Backend) HealthClass() healthClass { return healthClass(b.health.Load()) }

// Inflight returns the events currently charged to this backend.
//
//hepccl:hotpath
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// setHealth records a probe outcome and reports whether the class changed
// (a change obligates the caller to rebuild the slot table).
func (b *Backend) setHealth(h healthClass) bool {
	return healthClass(b.health.Swap(int32(h))) != h
}

// BackendSnapshot is the per-backend slice of the fleet /stats document.
type BackendSnapshot struct {
	Addr      string `json:"addr"`
	StatsAddr string `json:"stats_addr,omitempty"`
	State     string `json:"state"`
	Health    string `json:"health"`
	Slots     int    `json:"slots"`
	Forwarded uint64 `json:"forwarded"`
	Relayed   uint64 `json:"relayed"`
	Inflight  int64  `json:"inflight"`
	Failed    uint64 `json:"failed"`
	Dropped   uint64 `json:"dropped"`
	Conns     int64  `json:"conns"`
	// Probe carries the backend's own verbose health snapshot when the last
	// probe decoded one.
	Probe *health.Snapshot `json:"probe,omitempty"`
}

// snapshot captures the backend's counters; slots is filled in by the caller
// from the live table.
func (b *Backend) snapshot() BackendSnapshot {
	return BackendSnapshot{
		Addr:      b.Addr,
		StatsAddr: b.StatsAddr(),
		State:     b.AdminState().String(),
		Health:    b.HealthClass().String(),
		Forwarded: b.forwarded.Load(),
		Relayed:   b.relayed.Load(),
		Inflight:  b.inflight.Load(),
		Failed:    b.failed.Load(),
		Dropped:   b.dropped.Load(),
		Conns:     b.conns.Load(),
		Probe:     b.snap.Load(),
	}
}
