package server

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/health"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// latencyHist is a lock-free log-scale histogram of event latencies
// (assembly → response handoff). Each power-of-two octave of microseconds is
// split into four sub-buckets, giving ~19% worst-case quantile error with a
// fixed 256-counter footprint.
type latencyHist struct {
	buckets [256]atomic.Uint64
	count   atomic.Uint64
	sumUs   atomic.Uint64
	maxUs   atomic.Uint64
}

// bucketOf maps a microsecond latency to its histogram bucket.
func bucketOf(us uint64) int {
	if us < 4 {
		return int(us) // buckets 0..3 are exact
	}
	exp := bits.Len64(us) - 1        // top bit position, >= 2
	sub := (us >> (exp - 2)) & 3     // next two bits
	return int(4*(exp-1)) + int(sub) // 4 sub-buckets per octave
}

// bucketUpper returns the inclusive upper bound (µs) of a bucket.
func bucketUpper(b int) uint64 {
	if b < 4 {
		return uint64(b)
	}
	exp := b/4 + 1
	sub := uint64(b%4) + 1
	return (1 << exp) + sub<<(exp-2) - 1
}

func (h *latencyHist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bucketOf(us)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUs.Add(us)
	for {
		old := h.maxUs.Load()
		if us <= old || h.maxUs.CompareAndSwap(old, us) {
			break
		}
	}
}

// quantile returns the upper bound of the bucket holding the q-th sample.
func (h *latencyHist) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum > target {
			return bucketUpper(b)
		}
	}
	return h.maxUs.Load()
}

// counters is one connection's statistics, the only home of each count: the
// connection's reader or its worker writes each field, and nothing else does.
// The server-wide figures are folded from them when read (Server.totals).
type counters struct {
	EventsIn         atomic.Uint64 // events fully assembled
	EventsOut        atomic.Uint64 // responses handed to the connection's write
	Dropped          atomic.Uint64 // lost to a full queue (or shutdown)
	BadEvents        atomic.Uint64 // events the pipeline rejected
	IncompleteEvents atomic.Uint64 // assembly failures (missing/interleaved)
	BadPackets       atomic.Uint64 // frames failing validation
	SkippedBytes     atomic.Uint64 // link garbage skipped while resyncing
	BytesOut         atomic.Uint64 // response bytes written
	ReadErrors       atomic.Uint64 // transport faults surfaced by readers
	IdleTimeouts     atomic.Uint64 // connections closed by idle/assembly deadline
	BreakerTrips     atomic.Uint64 // connections closed by the resync breaker
}

// Stats holds the server-wide counts that no connection owns, each written
// once. Per-connection counts live in each conn's counters, and the
// connection totals are Server.totals.
type Stats struct {
	QueueHWM atomic.Int64  // high-water mark across all shards
	ServeNs  atomic.Uint64 // cumulative pipeline service time, nanoseconds
	// LitChannels counts the lit channels of every event handed to the
	// pipeline; over EventsOut × Pixels it is the served lit fraction.
	LitChannels atomic.Uint64
	// ReferenceRouteEvents counts events a reader assembled with at least
	// one frame off the wire scan (adapt.StreamReader.ReferenceEvents).
	ReferenceRouteEvents atomic.Uint64
	latency              latencyHist
	start                time.Time
}

func (st *Stats) observeQueueDepth(depth int) {
	d := int64(depth)
	for {
		old := st.QueueHWM.Load()
		if d <= old || st.QueueHWM.CompareAndSwap(old, d) {
			return
		}
	}
}

// LatencySnapshot summarizes the latency distribution in microseconds.
type LatencySnapshot struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  uint64  `json:"p50_us"`
	P90Us  uint64  `json:"p90_us"`
	P99Us  uint64  `json:"p99_us"`
	MaxUs  uint64  `json:"max_us"`
}

// CounterSnapshot is the JSON form of a counters block.
type CounterSnapshot struct {
	EventsIn         uint64 `json:"events_in"`
	EventsOut        uint64 `json:"events_out"`
	Dropped          uint64 `json:"dropped"`
	BadEvents        uint64 `json:"bad_events"`
	IncompleteEvents uint64 `json:"incomplete_events"`
	BadPackets       uint64 `json:"bad_packets"`
	SkippedBytes     uint64 `json:"skipped_bytes"`
	BytesOut         uint64 `json:"bytes_out"`
	ReadErrors       uint64 `json:"read_errors"`
	IdleTimeouts     uint64 `json:"idle_timeouts"`
	BreakerTrips     uint64 `json:"breaker_trips"`
}

func (c *counters) snapshot() (t CounterSnapshot) {
	c.foldInto(&t)
	return t
}

// foldInto adds the counters to t.
func (c *counters) foldInto(t *CounterSnapshot) {
	t.EventsIn += c.EventsIn.Load()
	t.EventsOut += c.EventsOut.Load()
	t.Dropped += c.Dropped.Load()
	t.BadEvents += c.BadEvents.Load()
	t.IncompleteEvents += c.IncompleteEvents.Load()
	t.BadPackets += c.BadPackets.Load()
	t.SkippedBytes += c.SkippedBytes.Load()
	t.BytesOut += c.BytesOut.Load()
	t.ReadErrors += c.ReadErrors.Load()
	t.IdleTimeouts += c.IdleTimeouts.Load()
	t.BreakerTrips += c.BreakerTrips.Load()
}

// totals is the server-wide counter block: the retired connections' sum plus
// every live connection's counters. Retirement folds a connection into
// s.retired and deletes it from s.conns under the same s.mu hold, so each
// count is in the sum exactly once.
func (s *Server) totals() CounterSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.retired
	for c := range s.conns {
		c.stats.foldInto(&t)
	}
	return t
}

// ConnSnapshot is one active connection's statistics.
type ConnSnapshot struct {
	ID     uint64 `json:"id"`
	Remote string `json:"remote"`
	CounterSnapshot
}

// healthWindow holds the counter baseline of the previous health evaluation
// so each verdict reflects the recent window, not lifetime averages.
type healthWindow struct {
	mu         sync.Mutex
	at         time.Time
	snap       health.Snapshot
	in         uint64
	dropped    uint64
	resyncLoss uint64
}

// The health thresholds, on the recent window's fractions: drop fraction
// (dropped/assembled) for degraded and overloaded, and resync-loss fraction
// (bad packets + incomplete events per assembly attempt) for degraded.
const (
	degradedLossRate   = 0.01
	overloadLossRate   = 0.10
	degradedResyncRate = 0.05
)

// healthMinWindow is the shortest interval between fresh health evaluations;
// requests inside it reuse the cached verdict so rates are computed over a
// meaningful sample.
const healthMinWindow = 250 * time.Millisecond

// Health evaluates the server's recent drop and resync rates against the
// thresholds:
//
//	overloaded: drop fraction >= overloadLossRate (10 %)
//	degraded:   drop fraction >= degradedLossRate (1 %), or resync-loss
//	            fraction (bad packets + incomplete events per assembly
//	            attempt) >= degradedResyncRate (5 %)
//	ok:         otherwise
//
// Verdicts are cached for healthMinWindow; an idle window keeps the previous
// verdict's thresholds trivially satisfied and reports ok.
func (s *Server) Health() health.State {
	return s.HealthSnapshot().State
}

// health.Snapshot evaluates (or returns the cached) health verdict together
// with the windowed fractions that produced it.
func (s *Server) HealthSnapshot() health.Snapshot {
	h := &s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	if h.snap.State != "" && now.Sub(h.at) < healthMinWindow {
		return h.snap
	}
	t := s.totals()
	in, dropped := t.EventsIn, t.Dropped
	resyncLoss := t.BadPackets + t.IncompleteEvents

	din := in - h.in
	ddrop := dropped - h.dropped
	dresync := resyncLoss - h.resyncLoss
	window := now.Sub(h.at)
	if h.at.IsZero() {
		window = now.Sub(s.stats.start)
	}
	h.at, h.in, h.dropped, h.resyncLoss = now, in, dropped, resyncLoss

	snap := health.Snapshot{
		State:              health.OK,
		WindowSeconds:      window.Seconds(),
		EventsIn:           din,
		Dropped:            ddrop,
		ResyncLoss:         dresync,
		DegradedLossRate:   degradedLossRate,
		OverloadLossRate:   overloadLossRate,
		DegradedResyncRate: degradedResyncRate,
	}
	if din > 0 {
		snap.LossFraction = float64(ddrop) / float64(din)
		snap.ResyncFraction = float64(dresync) / float64(din+dresync)
		switch {
		case snap.LossFraction >= overloadLossRate:
			snap.State = health.Overloaded
		case snap.LossFraction >= degradedLossRate || snap.ResyncFraction >= degradedResyncRate:
			snap.State = health.Degraded
		}
	} else if dresync > 0 {
		// Nothing assembled but the link is producing garbage.
		snap.ResyncFraction = 1
		snap.State = health.Degraded
	}
	if s.wal != nil {
		if snap.WALAppendErrors = s.wal.AppendErrors(); snap.WALAppendErrors > 0 && snap.State == health.OK {
			snap.State = health.Degraded
		}
	}
	h.snap = snap
	return snap
}

// rateWindow maintains the EWMA throughput gauges published on /stats. Like
// healthWindow, it is advanced lazily by snapshot requests: each request at
// least rateMinWindow after the previous evaluation folds the window's
// delta-rates into the smoothed gauges, so scrape cadence sets the sample
// window and an unwatched server does no background work.
type rateWindow struct {
	mu      sync.Mutex
	at      time.Time
	out     uint64  // EventsOut baseline at the last evaluation
	serveNs uint64  // ServeNs baseline at the last evaluation
	evRate  float64 // smoothed events/s out
	nsPerEv float64 // smoothed pipeline ns per served event
}

// rateMinWindow is the shortest sample window for a fresh EWMA update;
// requests inside it read the cached gauges.
const rateMinWindow = 250 * time.Millisecond

// rateTau is the EWMA time constant: a rate step reaches ~63% of its new
// value after rateTau of scraping, regardless of scrape cadence.
const rateTau = 5 * time.Second

// update folds the deltas of the cumulative out and serveNs since the
// previous evaluation into the smoothed gauges and returns them.
func (rw *rateWindow) update(out, serveNs uint64) (evPerSec, nsPerEvent float64) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	now := time.Now()
	if rw.at.IsZero() {
		rw.at, rw.out, rw.serveNs = now, out, serveNs
		return 0, 0
	}
	dt := now.Sub(rw.at)
	if dt < rateMinWindow {
		return rw.evRate, rw.nsPerEv
	}
	dout := out - rw.out
	dns := serveNs - rw.serveNs
	rw.at, rw.out, rw.serveNs = now, out, serveNs

	alpha := 1 - math.Exp(-dt.Seconds()/rateTau.Seconds())
	rw.evRate += alpha * (float64(dout)/dt.Seconds() - rw.evRate)
	if dout > 0 {
		rw.nsPerEv += alpha * (float64(dns)/float64(dout) - rw.nsPerEv)
	}
	return rw.evRate, rw.nsPerEv
}

// Snapshot is the JSON document served by the stats endpoint.
type Snapshot struct {
	Health        health.State `json:"health"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	ConnsActive   int64        `json:"conns_active"`
	ConnsTotal    uint64       `json:"conns_total"`
	Workers       int          `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	Pixels        int          `json:"pixels"`        // served frame size (channels for 1D)
	ServeBackend  string       `json:"serve_backend"` // resolved labeling backend: run, pixel, 1d
	ScanKernel    string       `json:"scan_kernel"`   // suppress-pass implementation on this host: avx2, portable
	QueueLens     []int        `json:"queue_lens"`
	QueueHWM      int64        `json:"queue_hwm"`
	LossFraction  float64      `json:"loss_fraction"`
	EventsPerSec  float64      `json:"events_per_sec"` // EWMA served throughput
	NsPerEvent    float64      `json:"ns_per_event"`   // EWMA pipeline time per event
	// The raw cumulative counters behind the gauges, so a scraper can take
	// its own deltas instead of inverting the EWMA.
	ServeNs              uint64 `json:"serve_ns"`
	LitChannels          uint64 `json:"lit_channels"`
	ReferenceRouteEvents uint64 `json:"reference_route_events"`
	CounterSnapshot
	Latency LatencySnapshot `json:"latency"`
	// WAL is the recording log's state, present only when recording.
	WAL   *wal.Snapshot  `json:"wal,omitempty"`
	Conns []ConnSnapshot `json:"conns"`
}

// StatsSnapshot returns a consistent-enough view of the server statistics.
// Counters are read individually, so totals may be skewed by in-flight
// events; the loss fraction is computed from the values read.
func (s *Server) StatsSnapshot() Snapshot {
	st := &s.stats
	snap := Snapshot{
		Health:          s.Health(),
		UptimeSeconds:   time.Since(st.start).Seconds(),
		Workers:         len(s.workers),
		QueueDepth:      s.cfg.QueueDepth,
		Pixels:          s.pixels,
		ServeBackend:    s.serveBackend,
		ScanKernel:      adapt.ScanKernel(),
		QueueHWM:        st.QueueHWM.Load(),
		CounterSnapshot: s.totals(),

		ServeNs:              st.ServeNs.Load(),
		LitChannels:          st.LitChannels.Load(),
		ReferenceRouteEvents: st.ReferenceRouteEvents.Load(),
	}
	snap.EventsPerSec, snap.NsPerEvent = s.rates.update(snap.EventsOut, snap.ServeNs)
	if s.wal != nil {
		w := s.wal.Snapshot()
		snap.WAL = &w
	}
	for _, w := range s.workers {
		snap.QueueLens = append(snap.QueueLens, len(w.q))
	}
	if snap.EventsIn > 0 {
		snap.LossFraction = float64(snap.Dropped) / float64(snap.EventsIn)
	}
	h := &st.latency
	snap.Latency = LatencySnapshot{
		Count: h.count.Load(),
		P50Us: h.quantile(0.50),
		P90Us: h.quantile(0.90),
		P99Us: h.quantile(0.99),
		MaxUs: h.maxUs.Load(),
	}
	if snap.Latency.Count > 0 {
		snap.Latency.MeanUs = float64(h.sumUs.Load()) / float64(snap.Latency.Count)
	}
	s.mu.Lock()
	snap.ConnsActive, snap.ConnsTotal = int64(len(s.conns)), s.connID
	for c := range s.conns {
		snap.Conns = append(snap.Conns, ConnSnapshot{
			ID:              c.id,
			Remote:          c.remote,
			CounterSnapshot: c.stats.snapshot(),
		})
	}
	s.mu.Unlock()
	return snap
}
