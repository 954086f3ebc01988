package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/chaos"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/health"
	"github.com/wustl-adapt/hepccl/internal/leakcheck"
)

// countRecords parses the downlink record framing (8-byte header carrying
// the event id and island count, then fixed-size island entries) until EOF,
// returning how many complete records arrived. Any malformed tail is an
// error: the server must never emit a partial record.
func countRecords(nc net.Conn) (int, error) {
	br := bufio.NewReaderSize(nc, 64<<10)
	var hdr [8]byte
	n := 0
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, fmt.Errorf("record %d header: %w", n, err)
		}
		islands := int(binary.BigEndian.Uint32(hdr[4:]))
		if _, err := io.CopyN(io.Discard, br, int64(islands)*adapt.RecordIslandBytes); err != nil {
			return n, fmt.Errorf("record %d body (%d islands): %w", n, islands, err)
		}
		n++
	}
}

// soakDump renders what a failed soak ledger needs beside it: the full /stats
// document, whose counters are folded from the connections', and every
// connection's final counters.
func soakDump(snap Snapshot, conns map[*conn]struct{}) string {
	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		doc = []byte(err.Error())
	}
	per := make([]ConnSnapshot, 0, len(conns))
	for c := range conns {
		per = append(per, ConnSnapshot{ID: c.id, Remote: c.remote, CounterSnapshot: c.stats.snapshot()})
	}
	sort.Slice(per, func(i, j int) bool { return per[i].ID < per[j].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "/stats: %s\nper connection (%d tracked of %d accepted):\n", doc, len(per), snap.ConnsTotal)
	for _, c := range per {
		fmt.Fprintf(&b, "  conn %d %s: %+v\n", c.ID, c.Remote, c.CounterSnapshot)
	}
	return b.String()
}

// TestChaosSoak drives Poisson-paced traffic through frame-level fault
// injection for several seconds and then balances the books exactly:
//
//	events assembled        == events offered - events killed by faults + skimmed faults
//	incomplete events       == corrupted events + disconnect partials - skimmed faults
//	served + dropped + bad  == events assembled
//
// so served + dropped + incomplete accounts for every offered event. The
// server must stay up and leak no goroutines.
//
// It runs twice. At QueueDepth 256 the lane is almost never full, nearly
// every event takes the verifying read, and the server must not report
// overloaded. At QueueDepth 2 the lane is full most of the time, so most
// events — faulted ones included — are condemned and skimmed (two thirds or
// more of the one-second run): that row holds the same books over the skim
// path without needing a loaded host to provoke drops.
//
// "Skimmed faults" is the one sanctioned crossover between the client's
// fault ledger and the server's. A condemned event is skimmed: its first
// frame is verified, every later frame is taken on its header alone once the
// header repeats the first frame's event id and sample count — no checksum,
// no decode (DESIGN.md §9). A fault that leaves a later frame's framing
// intact (a flip in its payload, ASIC, flags or timestamp bytes; a cut whose
// missing tail the skim makes up from the next frame) is therefore never
// detected: the event counts as assembled-and-dropped rather than
// incomplete, exactly as a full hardware derandomizer refuses a trigger
// without inspecting it. The crossover count is not client-observable, so
// the two equalities above are checked with the measured crossover X =
// EventsIn - (offered - corrupted - partials), asserting 0 <= X <=
// min(corrupted, Dropped); the headline identity stays exact regardless.
//
// The fault set is restricted to "clean kills" — single bit flips (always
// caught by the frame checksum), frame truncation, and mid-event disconnects
// at packet boundaries — because each destroys exactly one event and nothing
// else, which is what makes exact accounting possible. Duplication and
// insertion faults break the 1:1 mapping (a duplicated ASIC also poisons the
// assembly it lands in) and are exercised in the chaos package's own tests
// instead. Faults and disconnects are mutually exclusive per event so each
// lost event has exactly one cause.
func TestChaosSoak(t *testing.T) {
	full := soakRate * 5
	if testing.Short() {
		full = soakRate // one second under -race CI
	}
	for _, row := range []struct {
		name          string
		depth, events int
		skims         bool // the lane is meant to be full most of the time
	}{
		{"deep-256", 256, full, false},
		{"shallow-2", 2, soakRate, true},
	} {
		t.Run(row.name, func(t *testing.T) { chaosSoak(t, row.depth, row.events, row.skims) })
	}
}

const soakRate = 15000 // events/s offered

// chaosSoak is one soak run of totalEvents at the given derandomizer depth.
func chaosSoak(t *testing.T, queueDepth, totalEvents int, skimming bool) {
	const (
		seed        = 0x50AC
		corruptProb = 0.01  // per frame: 0.5% bit flip + 0.5% truncate
		discProb    = 0.001 // per event: cut mid-event, reconnect
	)

	leakcheck.Check(t)

	cfg := testConfig()
	s, err := New(Config{
		Pipeline: cfg, Workers: 2, QueueDepth: queueDepth, Policy: PolicyDrop,
		// Generous guards: they must exist (a wedged soak should fail fast,
		// not hang the suite) without tripping on healthy traffic.
		IdleTimeout:       30 * time.Second,
		AssemblyTimeout:   30 * time.Second,
		BreakerBadPackets: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	addr := ln.Addr().String()

	// One template event, rewritten per event id: generating 75k distinct
	// events dominates runtime without adding fault coverage.
	template := makeEvents(t, cfg, 1, seed)[0]
	frames := make([][]byte, len(template))
	for i := range template {
		f, err := template[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}

	rng := detector.NewRNG(seed)
	inj := chaos.NewFrameInjector(chaos.FrameConfig{
		Seed:     seed + 1,
		BitFlip:  corruptProb / 2,
		Truncate: corruptProb / 2,
	})

	var (
		offered    int // events whose packets we began writing
		corrupted  int // events with >= 1 faulted frame
		partials   int // events cut mid-assembly by a disconnect
		reconnects int
	)

	// drains collects the response-reader goroutines; each parses the record
	// framing until its connection is done so the workers' response writes
	// never feel backpressure AND every response byte is accounted for: the
	// spine recycles event storage and the worker's response buffer
	// aggressively, so a coalesced run written from storage a stale event
	// still referenced would surface here as a framing error or a
	// record-count mismatch against EventsOut.
	var drains []chan struct{}
	var recordsDrained atomic.Int64
	var drainMu sync.Mutex
	var drainErrs []error
	drainConn := func(nc net.Conn) {
		done := make(chan struct{})
		drains = append(drains, done)
		go func() {
			defer close(done)
			n, err := countRecords(nc)
			recordsDrained.Add(int64(n))
			if err != nil {
				drainMu.Lock()
				drainErrs = append(drainErrs, err)
				drainMu.Unlock()
			}
			nc.Close()
		}()
	}

	dial := func() net.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		drainConn(nc)
		return nc
	}
	nc := dial()

	// tracked holds every server-side connection the soak opened, so a
	// failing ledger can print each one's final counters: /stats lists only
	// live connections, and by the end there are none. The client talks on
	// one connection at a time, so sweeping the table just before each
	// disconnect sees them all.
	tracked := map[*conn]struct{}{}
	track := func() {
		s.mu.Lock()
		for c := range s.conns {
			tracked[c] = struct{}{}
		}
		s.mu.Unlock()
	}

	// reframe points the wire frames at event id ev.
	reframe := func(ev uint32) {
		for _, f := range frames {
			if err := adapt.PatchFrameEventID(f, ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	start := time.Now()
	interval := time.Second / time.Duration(soakRate)
	for ev := 0; ev < totalEvents; ev++ {
		// Poisson pacing: exponential inter-arrival around the target rate,
		// checked every 64 events to keep syscall overhead off the clock.
		if ev%64 == 0 {
			due := start.Add(time.Duration(ev) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		reframe(uint32(ev))
		offered++

		if rng.Float64() < discProb {
			// Mid-event disconnect: at least one full packet, never all.
			k := 1 + rng.Intn(len(frames)-1)
			for i := 0; i < k; i++ {
				if _, err := nc.Write(frames[i]); err != nil {
					t.Fatalf("event %d packet %d: %v", ev, i, err)
				}
			}
			track()
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.CloseWrite() // clean FIN: buffered packets still arrive
			} else {
				nc.Close()
			}
			partials++
			reconnects++
			nc = dial()
			continue
		}

		hit := false
		for _, f := range frames {
			chunks, fault := inj.Mutate(f)
			if fault != chaos.FaultNone {
				hit = true
			}
			for _, c := range chunks {
				if _, err := nc.Write(c); err != nil {
					t.Fatalf("event %d: %v", ev, err)
				}
			}
		}
		if hit {
			corrupted++
		}
	}
	elapsed := time.Since(start)
	track()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		nc.Close()
	}

	// The server must still be answering while loaded.
	if h := s.Health(); h == health.Overloaded && !skimming {
		t.Errorf("health = %v at end of soak", h)
	}

	// Wait for every response stream to finish, then drain the server.
	for _, done := range drains {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("response drain wedged")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}

	snap := s.StatsSnapshot()
	t.Logf("soak: %d events in %v (%.0f ev/s), corrupted=%d partials=%d reconnects=%d",
		offered, elapsed.Round(time.Millisecond),
		float64(offered)/elapsed.Seconds(), corrupted, partials, reconnects)
	t.Logf("server: in=%d out=%d dropped=%d bad_ev=%d incomplete=%d bad_pkts=%d skipped=%dB",
		snap.EventsIn, snap.EventsOut, snap.Dropped, snap.BadEvents,
		snap.IncompleteEvents, snap.BadPackets, snap.SkippedBytes)

	if corrupted == 0 || partials == 0 {
		t.Fatalf("fault mix too thin to prove anything: corrupted=%d partials=%d", corrupted, partials)
	}
	if skimming && snap.Dropped < uint64(offered)/10 {
		t.Errorf("dropped = %d of %d: a depth-%d lane was meant to condemn most events, and it is the skim this row is here to audit",
			snap.Dropped, offered, queueDepth)
	}
	// Corrupted events that were condemned by a full lane were skimmed, so a
	// fault that left a later frame's framing intact goes undetected: the
	// event is assembled (and dropped) instead of incomplete. That crossover
	// X is the only permitted deviation from the client's ledger, and it is
	// bounded by both sides of the overlap.
	clean := uint64(offered - corrupted - partials)
	if snap.EventsIn < clean {
		t.Fatalf("EventsIn = %d, want >= %d (offered %d - corrupted %d - partials %d)\n%s",
			snap.EventsIn, clean, offered, corrupted, partials, soakDump(snap, tracked))
	}
	skimmedFlips := snap.EventsIn - clean
	if skimmedFlips > 0 {
		t.Logf("skimmed faults: %d corrupted events condemned before checksum", skimmedFlips)
	}
	// Each ledger check is named, so a failure says which identity broke and
	// by how much in which direction.
	var tripped []string
	ledger := func(name string, ok bool, format string, args ...any) {
		if !ok {
			tripped = append(tripped, name)
			t.Errorf("ledger check %q: "+format, append([]any{name}, args...)...)
		}
	}
	ledger("skimmed-bound", skimmedFlips <= snap.Dropped && skimmedFlips <= uint64(corrupted),
		"EventsIn = %d exceeds %d by %d, more than dropped %d / corrupted %d",
		snap.EventsIn, clean, skimmedFlips, snap.Dropped, corrupted)
	wantIncomplete := uint64(corrupted+partials) - skimmedFlips
	ledger("incomplete", snap.IncompleteEvents == wantIncomplete,
		"IncompleteEvents = %d, want %d (corrupted %d + partials %d - skimmed %d): off by %+d",
		snap.IncompleteEvents, wantIncomplete, corrupted, partials, skimmedFlips,
		int64(snap.IncompleteEvents)-int64(wantIncomplete))
	assembled := snap.EventsOut + snap.Dropped + snap.BadEvents
	ledger("assembled", assembled == snap.EventsIn,
		"served %d + dropped %d + bad %d = %d, want EventsIn %d",
		snap.EventsOut, snap.Dropped, snap.BadEvents, assembled, snap.EventsIn)
	// The headline identity: every offered event is accounted for.
	ledger("offered", assembled+snap.IncompleteEvents == uint64(offered),
		"served+dropped+bad+incomplete = %d, want offered %d: off by %+d",
		assembled+snap.IncompleteEvents, offered,
		int64(assembled+snap.IncompleteEvents)-int64(offered))
	if len(tripped) > 0 {
		t.Errorf("ledger checks tripped: %v\n%s", tripped, soakDump(snap, tracked))
	}
	if snap.ReadErrors != 0 {
		t.Errorf("ReadErrors = %d, want 0 (all disconnects were clean FINs)", snap.ReadErrors)
	}
	if snap.IdleTimeouts != 0 || snap.BreakerTrips != 0 {
		t.Errorf("guards tripped during healthy soak: idle=%d breaker=%d",
			snap.IdleTimeouts, snap.BreakerTrips)
	}
	// Downlink integrity: every record the server counts as served must have
	// arrived as a well-framed record. A response buffer reused before its
	// write completed would break the framing or the count.
	for _, err := range drainErrs {
		t.Errorf("response stream: %v", err)
	}
	if got := recordsDrained.Load(); got != int64(snap.EventsOut) {
		t.Errorf("client parsed %d records, server served %d", got, snap.EventsOut)
	}
}
