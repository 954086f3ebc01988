package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
)

// testConfig is a cheap 1D pipeline: 4 ASICs, 4 samples — fast enough for
// race-enabled runs.
func testConfig() adapt.Config {
	cfg := adapt.DefaultADAPT()
	cfg.ASICs = 4
	cfg.SamplesPerChannel = 4
	return cfg
}

// startServer builds, serves on an ephemeral port, and tears down with t.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s, ln.Addr().String()
}

// makeEvents digitizes n tracker events for cfg.
func makeEvents(t testing.TB, cfg adapt.Config, n int, seed uint64) [][]adapt.Packet {
	t.Helper()
	rng := detector.NewRNG(seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	tracker := detector.DefaultTracker()
	tracker.Channels = cfg.ASICs * adapt.ChannelsPerASIC
	tracker.Threshold = 0
	events := make([][]adapt.Packet, n)
	for i := range events {
		ev, err := adapt.GenerateEvent(tracker.Event(rng).Values, cfg.ASICs,
			uint32(i), uint64(i), dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = ev
	}
	return events
}

// readAllRecords consumes downlink records until EOF.
func readAllRecords(t testing.TB, r io.Reader) []adapt.EventRecord {
	t.Helper()
	var out []adapt.EventRecord
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatalf("record header: %v", err)
		}
		n := int(binary.BigEndian.Uint32(hdr[4:]))
		body := make([]byte, 8+adapt.RecordIslandBytes*n)
		copy(body, hdr[:])
		if _, err := io.ReadFull(r, body[8:]); err != nil {
			t.Fatalf("record body: %v", err)
		}
		rec, err := adapt.UnmarshalEventRecord(body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// sendEvents writes events over the wire and half-closes.
func sendEvents(t testing.TB, nc net.Conn, events [][]adapt.Packet) {
	t.Helper()
	sw := adapt.NewStreamWriter(nc)
	for _, ev := range events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Errorf("write event: %v", err)
			return
		}
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

func TestServerEndToEnd(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{Pipeline: cfg, Workers: 2, QueueDepth: 16, Policy: PolicyBlock})
	const conns, perConn = 3, 40
	events := makeEvents(t, cfg, perConn, 99)

	var wg sync.WaitGroup
	recs := make([][]adapt.EventRecord, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			go sendEvents(t, nc, events)
			recs[c] = readAllRecords(t, nc)
		}(c)
	}
	wg.Wait()

	for c := 0; c < conns; c++ {
		if len(recs[c]) != perConn {
			t.Fatalf("conn %d: got %d records, want %d", c, len(recs[c]), perConn)
		}
		seen := make(map[uint32]bool)
		for _, r := range recs[c] {
			seen[r.Event] = true
		}
		for i := 0; i < perConn; i++ {
			if !seen[uint32(i)] {
				t.Fatalf("conn %d: missing record for event %d", c, i)
			}
		}
	}
	snap := s.StatsSnapshot()
	if snap.EventsIn != conns*perConn || snap.EventsOut != conns*perConn {
		t.Fatalf("stats in=%d out=%d, want %d", snap.EventsIn, snap.EventsOut, conns*perConn)
	}
	if snap.Dropped != 0 || snap.BadEvents != 0 || snap.ReadErrors != 0 {
		t.Fatalf("unexpected failures in %+v", snap.CounterSnapshot)
	}
	if snap.Latency.Count != conns*perConn {
		t.Fatalf("latency count %d, want %d", snap.Latency.Count, conns*perConn)
	}
}

// pacings are the two ways the one worker loop runs: whole-backlog drains, and
// one event per service slot (fast enough not to slow the suite).
var pacings = []struct {
	name string
	rate float64
}{{"unpaced", 0}, {"paced", 50_000}}

// TestServerRecordsMatchPipeline verifies the served records equal what a
// local pipeline produces for the same packets, paced or not.
func TestServerRecordsMatchPipeline(t *testing.T) {
	cfg := testConfig()
	events := makeEvents(t, cfg, 10, 7)

	p, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint32]adapt.EventRecord)
	for _, ev := range events {
		var rec adapt.EventRecord
		if err := p.ServeEvent(ev, &rec); err != nil {
			t.Fatal(err)
		}
		rec.Islands = append([]adapt.IslandRecord(nil), rec.Islands...)
		want[rec.Event] = rec
	}

	for _, pace := range pacings {
		t.Run(pace.name, func(t *testing.T) {
			_, addr := startServer(t, Config{Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock, PaceRate: pace.rate})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			go sendEvents(t, nc, events)
			got := readAllRecords(t, nc)
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for _, got := range got {
				w, ok := want[got.Event]
				if !ok {
					t.Fatalf("unexpected event %d", got.Event)
				}
				if len(got.Islands) != len(w.Islands) {
					t.Fatalf("event %d: %d islands, want %d", got.Event, len(got.Islands), len(w.Islands))
				}
				for i := range got.Islands {
					if got.Islands[i] != w.Islands[i] {
						t.Fatalf("event %d island %d: %+v, want %+v", got.Event, i, got.Islands[i], w.Islands[i])
					}
				}
			}
		})
	}
}

// modeledRate is cfg's modeled FPGA event rate, the rate hepccld -pace-hw
// paces each worker at.
func modeledRate(t *testing.T, cfg adapt.Config) float64 {
	t.Helper()
	p, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.EventsPerSecond()
}

func TestServerDropPolicy(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 1, Policy: PolicyDrop, PaceRate: modeledRate(t, cfg),
	})
	const n = 60
	events := makeEvents(t, cfg, n, 3)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go sendEvents(t, nc, events)
	recs := readAllRecords(t, nc)

	snap := s.StatsSnapshot()
	if snap.EventsIn != n {
		t.Fatalf("events in %d, want %d", snap.EventsIn, n)
	}
	if snap.Dropped == 0 {
		t.Fatal("burst into a depth-1 paced queue must drop events")
	}
	if snap.EventsOut+snap.Dropped+snap.BadEvents != n {
		t.Fatalf("in=%d != out=%d + dropped=%d + bad=%d",
			snap.EventsIn, snap.EventsOut, snap.Dropped, snap.BadEvents)
	}
	if uint64(len(recs)) != snap.EventsOut {
		t.Fatalf("client got %d records, server says %d", len(recs), snap.EventsOut)
	}
}

func TestServerBlockPolicy(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 1, Policy: PolicyBlock, PaceRate: modeledRate(t, cfg),
	})
	const n = 30
	events := makeEvents(t, cfg, n, 4)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go sendEvents(t, nc, events)
	recs := readAllRecords(t, nc)
	if len(recs) != n {
		t.Fatalf("got %d records, want %d (block policy must not lose events)", len(recs), n)
	}
	// One worker, one connection: FIFO order is preserved end to end.
	for i, r := range recs {
		if r.Event != uint32(i) {
			t.Fatalf("record %d is event %d, want %d", i, r.Event, i)
		}
	}
	if snap := s.StatsSnapshot(); snap.Dropped != 0 {
		t.Fatalf("block policy dropped %d events", snap.Dropped)
	}
}

// TestServerGracefulShutdownMidLoad drives continuous load from several
// connections, shuts down mid-stream, and checks every accepted event is
// accounted for. Run under -race this also exercises reader/worker/writer
// teardown ordering.
func TestServerGracefulShutdownMidLoad(t *testing.T) {
	cfg := testConfig()
	s, err := New(Config{Pipeline: cfg, Workers: 2, QueueDepth: 8, Policy: PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	const conns = 3
	events := makeEvents(t, cfg, 50, 5)
	received := make([]int, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			go func() {
				sw := adapt.NewStreamWriter(nc)
				for i := 0; ; i++ {
					if err := sw.WriteEvent(events[i%len(events)]); err != nil {
						return // server went away mid-stream; expected
					}
				}
			}()
			var hdr [8]byte
			for {
				if _, err := io.ReadFull(nc, hdr[:]); err != nil {
					return
				}
				n := int(binary.BigEndian.Uint32(hdr[4:]))
				if _, err := io.ReadFull(nc, make([]byte, adapt.RecordIslandBytes*n)); err != nil {
					return
				}
				received[c]++
			}
		}(c)
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	wg.Wait()

	snap := s.StatsSnapshot()
	if snap.EventsIn == 0 {
		t.Fatal("no events processed before shutdown")
	}
	if snap.EventsOut+snap.Dropped+snap.BadEvents != snap.EventsIn {
		t.Fatalf("in=%d != out=%d + dropped=%d + bad=%d",
			snap.EventsIn, snap.EventsOut, snap.Dropped, snap.BadEvents)
	}
	var got uint64
	for c := 0; c < conns; c++ {
		got += uint64(received[c])
	}
	// Clients may have missed trailing responses if their conn died first,
	// but can never see more than the server sent.
	if got > snap.EventsOut {
		t.Fatalf("clients saw %d records, server sent %d", got, snap.EventsOut)
	}
	if snap.ConnsActive != 0 {
		t.Fatalf("%d connections still active after shutdown", snap.ConnsActive)
	}
}

func TestServeAfterShutdown(t *testing.T) {
	s, err := New(Config{Pipeline: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("got %v, want ErrServerClosed", err)
	}
}

// TestServerBadInput feeds garbage, a corrupted frame, an interleaved event,
// a valid event, and then an event that repeats an ASIC; the valid event must
// still be served and the failure counters must reflect each fault — on whole
// drains and on the paced one-event drain alike.
func TestServerBadInput(t *testing.T) {
	for _, pace := range pacings {
		t.Run(pace.name, func(t *testing.T) { serverBadInput(t, pace.rate) })
	}
}

func serverBadInput(t *testing.T, paceRate float64) {
	cfg := testConfig()
	s, addr := startServer(t, Config{Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock, PaceRate: paceRate})
	events := makeEvents(t, cfg, 3, 11)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Link garbage before anything parses.
	if _, err := nc.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	// A corrupted frame: valid start, flipped payload byte.
	frame, err := events[0][0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-3] ^= 0xFF
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	// An interleaved event: first packet of event 0, then a packet of
	// event 1 — assembly of event 0 must fail without killing the
	// connection, and the interrupting packet is retained as the start of
	// the next assembly.
	sw := adapt.NewStreamWriter(nc)
	if err := sw.WritePacket(&events[0][0]); err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePacket(&events[1][0]); err != nil {
		t.Fatal(err)
	}
	// The rest of event 1 completes the assembly started by the retained
	// packet, so event 1 survives the interleave intact.
	for i := 1; i < len(events[1]); i++ {
		if err := sw.WritePacket(&events[1][i]); err != nil {
			t.Fatal(err)
		}
	}
	// A repeated ASIC: the event assembles, is counted in, and is a bad event
	// at the worker — no record.
	events[2][1] = events[2][0]
	if err := sw.WriteEvent(events[2]); err != nil {
		t.Fatal(err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	recs := readAllRecords(t, nc)
	if len(recs) != 1 || recs[0].Event != 1 {
		t.Fatalf("got %d records %+v, want 1 record for event 1", len(recs), recs)
	}
	snap := s.StatsSnapshot()
	if snap.SkippedBytes == 0 {
		t.Fatal("garbage bytes not counted")
	}
	if snap.BadPackets == 0 {
		t.Fatal("corrupted frame not counted")
	}
	if snap.IncompleteEvents == 0 {
		t.Fatal("interleaved event not counted")
	}
	if snap.BadEvents != 1 {
		t.Fatalf("BadEvents = %d, want 1 (the repeated ASIC; the retained packet must not duplicate)", snap.BadEvents)
	}
}

func TestStatsEndpoint(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock, StatsAddr: "127.0.0.1:0",
	})
	events := makeEvents(t, cfg, 6, 21)
	// Event 4 arrives with two frames swapped — valid, but off the wire
	// scan, so the reader's reference route assembles it. Event 5 repeats
	// an ASIC: it assembles, is counted in, and is a bad event at the worker.
	events[4][0], events[4][1] = events[4][1], events[4][0]
	events[5][1] = events[5][0]
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go sendEvents(t, nc, events)
	if got := len(readAllRecords(t, nc)); got != 5 {
		t.Fatalf("got %d records, want 5", got)
	}

	base, body := getStats(t, s)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.EventsIn != 6 || snap.EventsOut != 5 || snap.BadEvents != 1 {
		t.Fatalf("endpoint reports in=%d out=%d bad=%d, want 6/5/1", snap.EventsIn, snap.EventsOut, snap.BadEvents)
	}
	// The raw cumulative counters behind the gauges.
	if snap.ReferenceRouteEvents != 2 || snap.LitChannels == 0 || snap.ServeNs == 0 {
		t.Fatalf("endpoint reports reference_route_events=%d lit_channels=%d serve_ns=%d, want 2, >0, >0",
			snap.ReferenceRouteEvents, snap.LitChannels, snap.ServeNs)
	}
	if snap.Workers != 1 || snap.QueueDepth != 8 {
		t.Fatalf("endpoint reports workers=%d depth=%d", snap.Workers, snap.QueueDepth)
	}
	if k := snap.ScanKernel; k != adapt.ScanKernel() || (k != "avx2" && k != "portable") {
		t.Fatalf("endpoint reports scan_kernel=%q, the reader runs %q", k, adapt.ScanKernel())
	}
	if snap.ServeBackend != "1d" {
		t.Fatalf("endpoint reports serve_backend=%q for a 1D pipeline, want 1d", snap.ServeBackend)
	}
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}

	// A frame larger than any paper geometry serves on the same run backend
	// as the 43x43 camera, and the tile pool's field is gone from /stats.
	t.Run("frame160", func(t *testing.T) {
		s, _ := startServer(t, Config{Pipeline: adapt.DefaultFrame(160, 160), StatsAddr: "127.0.0.1:0"})
		_, body := getStats(t, s)
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if got := string(fields["serve_backend"]); got != `"run"` {
			t.Fatalf("160x160 daemon reports serve_backend=%s, want \"run\"", got)
		}
		if _, ok := fields["tile_workers"]; ok {
			t.Fatal("/stats still carries tile_workers")
		}
	})
}

// getStats waits for the stats endpoint and returns its base URL and one
// /stats body.
func getStats(t *testing.T, s *Server) (base string, body []byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsAddr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stats endpoint never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	base = "http://" + s.StatsAddr().String()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return base, body
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Pipeline: adapt.Config{}}); err == nil {
		t.Fatal("zero pipeline config must fail")
	}
}

func TestOverflowPolicyString(t *testing.T) {
	if PolicyDrop.String() != "drop" || PolicyBlock.String() != "block" {
		t.Fatalf("got %q, %q", PolicyDrop.String(), PolicyBlock.String())
	}
}

func TestLatencyHistogram(t *testing.T) {
	var h latencyHist
	for us := uint64(0); us < 1<<20; us = us*2 + 1 {
		b := bucketOf(us)
		if b < 0 || b >= len(h.buckets) {
			t.Fatalf("bucketOf(%d) = %d out of range", us, b)
		}
		if up := bucketUpper(b); us > up {
			t.Fatalf("us %d above its bucket upper bound %d (bucket %d)", us, up, b)
		}
		if us >= 4 {
			// Log-scale guarantee: the bound overestimates by < 25%.
			if up := bucketUpper(b); float64(up) > float64(us)*1.25+1 {
				t.Fatalf("bucketUpper(%d)=%d too loose for %d", b, up, us)
			}
		}
	}
	for _, ms := range []int{1, 1, 2, 2, 2, 3, 10, 50} {
		h.observe(time.Duration(ms) * time.Millisecond)
	}
	p50, p99 := h.quantile(0.50), h.quantile(0.99)
	if p50 > p99 {
		t.Fatalf("p50 %d > p99 %d", p50, p99)
	}
	if p50 < 1000 || p50 > 3000 {
		t.Fatalf("p50 %dµs implausible for samples around 2ms", p50)
	}
	if p99 < 10000 {
		t.Fatalf("p99 %dµs must reflect the 50ms tail (>= max bucket of 10ms sample)", p99)
	}
}

// TestQueueSharding checks round-robin placement over multiple workers.
func TestQueueSharding(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{Pipeline: cfg, Workers: 3, QueueDepth: 4, Policy: PolicyBlock})
	events := makeEvents(t, cfg, 9, 8)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go sendEvents(t, nc, events)
	if got := len(readAllRecords(t, nc)); got != 9 {
		t.Fatalf("got %d records, want 9", got)
	}
	if snap := s.StatsSnapshot(); len(snap.QueueLens) != 3 {
		t.Fatalf("expected 3 worker queues, got %d", len(snap.QueueLens))
	}
}
