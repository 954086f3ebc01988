// Package health holds the /healthz wire types shared by the daemon, which
// serves them, and the gateway, which probes them. It imports nothing from
// the module, so the gateway can read a backend's verdict without linking
// the daemon.
package health

// State classifies how a server is coping with its current load.
type State string

// The three health states reported on GET /healthz. Degraded and ok both
// answer HTTP 200 (the service is still doing useful work); overloaded
// answers 503 so a load balancer can shed traffic.
const (
	OK         State = "ok"
	Degraded   State = "degraded"
	Overloaded State = "overloaded"
)

// Snapshot is the typed form of a health verdict: the state plus the
// windowed inputs that produced it, served as JSON on /healthz?verbose=1 so
// a gateway prober (or a human) sees *why* a backend is degraded, not just
// that it is.
type Snapshot struct {
	State State `json:"state"`
	// LossFraction is the recent dropped/assembled fraction of the window.
	LossFraction float64 `json:"loss_fraction"`
	// ResyncFraction is the recent resync-loss fraction: (bad packets +
	// incomplete events) per assembly attempt over the window.
	ResyncFraction float64 `json:"resync_fraction"`
	// WindowSeconds is the evaluation window the fractions cover.
	WindowSeconds float64 `json:"window_seconds"`
	// EventsIn, Dropped, and ResyncLoss are the window's raw counter deltas.
	EventsIn   uint64 `json:"events_in"`
	Dropped    uint64 `json:"dropped"`
	ResyncLoss uint64 `json:"resync_loss"`
	// The thresholds the fractions were judged against.
	DegradedLossRate   float64 `json:"degraded_loss_rate"`
	OverloadLossRate   float64 `json:"overload_loss_rate"`
	DegradedResyncRate float64 `json:"degraded_resync_rate"`
	// WALAppendErrors is the recording log's failed-append count. Any failure
	// sticky-fails the writer, so a nonzero value degrades an otherwise-ok
	// verdict: the server still serves but the durability guarantee is gone.
	WALAppendErrors uint64 `json:"wal_append_errors,omitempty"`
}
