package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/wustl-adapt/hepccl/internal/health"
)

// The prober is the gateway's only view of backend health: it polls each
// backend's /healthz?verbose=1 (the typed health.Snapshot JSON) on a
// fixed interval and folds the three-state answer plus reachability into the
// backend's health class. Any class transition triggers a slot-table rebuild,
// which is where degraded spill and down-removal take effect; overload is
// read per event on the forward path.

// probeDownAfter is how many consecutive probe failures class a backend down.
const probeDownAfter = 3

// probeOnce fetches one health snapshot and updates the backend's class.
// It reports whether the class changed.
func (g *Gateway) probeOnce(b *Backend) bool {
	snap, err := fetchHealth(g.probeClient, b.StatsAddr())
	if err != nil {
		n := b.probeFails.Add(1)
		if n < probeDownAfter {
			return false
		}
		if b.setHealth(healthDown) {
			g.logf("gateway: backend %s down: %v", b.Addr, err)
			return true
		}
		return false
	}
	b.probeFails.Store(0)
	b.snap.Store(snap)
	var h healthClass
	switch snap.State {
	case health.Overloaded:
		h = healthOverloaded
	case health.Degraded:
		h = healthDegraded
	default:
		h = healthGood
	}
	if b.setHealth(h) {
		g.logf("gateway: backend %s health -> %s", b.Addr, h)
		return true
	}
	return false
}

// fetchHealth GETs one verbose health snapshot. A 503 still carries a valid
// snapshot (that is how hepccld reports overloaded), so only transport and
// decode failures are errors.
func fetchHealth(c *http.Client, statsAddr string) (*health.Snapshot, error) {
	resp, err := c.Get("http://" + statsAddr + "/healthz?verbose=1")
	if err != nil {
		return nil, fmt.Errorf("gateway: probe %s: %w", statsAddr, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("gateway: probe %s: HTTP %d", statsAddr, resp.StatusCode)
	}
	var snap health.Snapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("gateway: probe %s: decode: %w", statsAddr, err)
	}
	return &snap, nil
}

// probeAll probes the whole fleet (concurrently — one hung backend must not
// delay the others' transitions) and rebuilds the table if anything changed.
func (g *Gateway) probeAll() {
	backends := g.fleet()
	changed := make(chan bool, len(backends))
	for _, b := range backends {
		go func(b *Backend) { changed <- g.probeOnce(b) }(b)
	}
	rebuild := false
	for range backends {
		if <-changed {
			rebuild = true
		}
	}
	if rebuild {
		g.rebuild()
	}
}

// runProber polls until the gateway shuts down.
func (g *Gateway) runProber() {
	defer g.bgWG.Done()
	tick := time.NewTicker(g.probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-tick.C:
			g.probeAll()
		}
	}
}
