package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/health"
)

// TestIdleTimeoutClosesConnection: a client that connects and goes silent is
// reaped by the idle deadline and counted, without disturbing active clients.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock,
		IdleTimeout: 50 * time.Millisecond,
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Silence. The server must hang up on us.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server never closed an idle connection")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsSnapshot().IdleTimeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle timeout not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := s.StatsSnapshot()
	if snap.ReadErrors != 0 {
		t.Fatalf("idle reap miscounted as read error: %+v", snap.CounterSnapshot)
	}
}

// TestAssemblyTimeoutReapsHalfEvent: a client that dies mid-event must not
// hold a reader goroutine beyond the assembly deadline.
func TestAssemblyTimeoutReapsHalfEvent(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock,
		IdleTimeout:     time.Hour, // only the assembly deadline may fire
		AssemblyTimeout: 50 * time.Millisecond,
	})
	events := makeEvents(t, cfg, 1, 5)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sw := adapt.NewStreamWriter(nc)
	// First packet only; then stall forever.
	if err := sw.WritePacket(&events[0][0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsSnapshot().IdleTimeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("assembly timeout never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBreakerTripsOnGarbageStorm: a connection spewing unframeable bytes is
// cut by the resync breaker instead of being resynced forever.
func TestBreakerTripsOnGarbageStorm(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock,
		BreakerBadPackets: 5, BreakerWindow: 10 * time.Second,
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Valid headers with corrupt payloads parse as bad packets (checksum
	// failures) — the breaker's trigger.
	events := makeEvents(t, cfg, 1, 7)
	frame, err := events[0][0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-3] ^= 0xFF
	go func() {
		for i := 0; i < 1000; i++ {
			if _, err := nc.Write(frame); err != nil {
				return // breaker closed the conn: expected
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsSnapshot().BreakerTrips == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.StatsSnapshot().BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", s.StatsSnapshot().BreakerTrips)
	}
}

func TestResyncBreakerWindowSlides(t *testing.T) {
	b := resyncBreaker{window: 100 * time.Millisecond, limit: 10}
	now := time.Now()
	if b.add(now, 10) {
		t.Fatal("breaker tripped at the limit, must require exceeding it")
	}
	if !b.add(now.Add(50*time.Millisecond), 1) {
		t.Fatal("breaker did not trip past the limit inside the window")
	}
	b = resyncBreaker{window: 100 * time.Millisecond, limit: 10}
	b.add(now, 10)
	if b.add(now.Add(200*time.Millisecond), 1) {
		t.Fatal("stale window must reset the count")
	}
	var off resyncBreaker
	if off.add(now, 1<<30) {
		t.Fatal("zero limit must disable the breaker")
	}
}

// TestHealthzDegradedAndOverloaded drives the health evaluation directly
// through the server totals and checks both the verdicts and the HTTP
// status codes.
func TestHealthzDegradedAndOverloaded(t *testing.T) {
	cfg := testConfig()
	s, _ := startServer(t, Config{
		Pipeline: cfg, QueueDepth: 8, Policy: PolicyDrop,
	})
	web := httptest.NewServer(s.Handler())
	defer web.Close()
	get := func() (health.State, int) {
		resp, err := http.Get(web.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body [64]byte
		n, _ := resp.Body.Read(body[:])
		return health.State(strings.TrimSpace(string(body[:n]))), resp.StatusCode
	}

	if st, code := get(); st != health.OK || code != http.StatusOK {
		t.Fatalf("idle server: %q %d, want ok 200", st, code)
	}
	// retire adds traffic to the server's totals as if connections carrying
	// it had come and gone.
	retire := func(in, dropped, badPackets uint64) {
		s.mu.Lock()
		s.retired.EventsIn += in
		s.retired.Dropped += dropped
		s.retired.BadPackets += badPackets
		s.mu.Unlock()
	}

	// 2%% recent loss: degraded, still HTTP 200.
	retire(1000, 20, 0)
	time.Sleep(healthMinWindow + 20*time.Millisecond)
	if st, code := get(); st != health.Degraded || code != http.StatusOK {
		t.Fatalf("2%% loss: %q %d, want degraded 200", st, code)
	}

	// 20%% recent loss: overloaded, HTTP 503.
	retire(1000, 200, 0)
	time.Sleep(healthMinWindow + 20*time.Millisecond)
	if st, code := get(); st != health.Overloaded || code != http.StatusServiceUnavailable {
		t.Fatalf("20%% loss: %q %d, want overloaded 503", st, code)
	}

	// Clean window again: recovery to ok.
	retire(10000, 0, 0)
	time.Sleep(healthMinWindow + 20*time.Millisecond)
	if st, code := get(); st != health.OK || code != http.StatusOK {
		t.Fatalf("clean window: %q %d, want ok 200", st, code)
	}

	// Resync storm without drops: degraded.
	retire(1000, 0, 500)
	time.Sleep(healthMinWindow + 20*time.Millisecond)
	if st, _ := get(); st != health.Degraded {
		t.Fatalf("resync storm: %q, want degraded", st)
	}
}

// TestHealthzVerbose asserts the typed JSON health snapshot on
// /healthz?verbose=1: state plus the windowed fractions and thresholds.
func TestHealthzVerbose(t *testing.T) {
	s, _ := startServer(t, Config{Pipeline: testConfig()})
	web := httptest.NewServer(s.Handler())
	defer web.Close()
	resp, err := http.Get(web.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap health.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != health.OK {
		t.Fatalf("idle server state %q, want ok", snap.State)
	}
	if snap.DegradedLossRate <= 0 || snap.OverloadLossRate <= snap.DegradedLossRate {
		t.Fatalf("thresholds not populated: %+v", snap)
	}
}

// TestHandlerHealthz: /healthz answers 503 when overloaded — JSON under
// ?verbose, the bare state line otherwise — and 200 when ok.
func TestHandlerHealthz(t *testing.T) {
	s, _ := startServer(t, Config{Pipeline: testConfig()})
	web := httptest.NewServer(s.Handler())
	defer web.Close()
	for _, tc := range []struct {
		name    string
		dropped uint64 // of 1000 events retired in the row's window
		query   string
		code    int
		ctype   string
		state   health.State
	}{
		{"overloaded/verbose", 200, "?verbose=1", http.StatusServiceUnavailable, "application/json", health.Overloaded},
		{"overloaded", 200, "", http.StatusServiceUnavailable, "text/plain; charset=utf-8", health.Overloaded},
		{"ok", 0, "", http.StatusOK, "text/plain; charset=utf-8", health.OK},
	} {
		s.mu.Lock()
		s.retired.EventsIn += 1000
		s.retired.Dropped += tc.dropped
		s.mu.Unlock()
		time.Sleep(healthMinWindow + 20*time.Millisecond)
		resp, err := http.Get(web.URL + "/healthz" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		state := health.State(strings.TrimSpace(string(body)))
		if tc.query != "" {
			var snap health.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("%s: body %q: %v", tc.name, body, err)
			}
			state = snap.State
		}
		if ctype := resp.Header.Get("Content-Type"); resp.StatusCode != tc.code || ctype != tc.ctype || state != tc.state {
			t.Errorf("%s: %d %q %q, want %d %q %q", tc.name, resp.StatusCode, ctype, state, tc.code, tc.ctype, tc.state)
		}
	}
}

// deadlineConn records SetWriteDeadline calls for the write-path test.
type deadlineConn struct {
	net.Conn  // nil; only the methods below are used
	deadlines []time.Time
	failSet   bool
	wrote     int
	closed    bool
}

func (d *deadlineConn) Write(p []byte) (int, error) { d.wrote += len(p); return len(p), nil }

func (d *deadlineConn) Close() error { d.closed = true; return nil }

func (d *deadlineConn) SetWriteDeadline(t time.Time) error {
	if d.failSet {
		return errors.New("boom")
	}
	d.deadlines = append(d.deadlines, t)
	return nil
}

// TestSendClearsDeadline: each successful response write must arm then clear
// the write deadline, and SetWriteDeadline failures must surface — as a
// failed connection whose socket is closed.
func TestSendClearsDeadline(t *testing.T) {
	dc := &deadlineConn{}
	c := &conn{s: &Server{cfg: Config{WriteTimeout: time.Second}}, nc: dc}
	c.send([]byte("abc"))
	if c.failed {
		t.Fatal("clean write marked the connection failed")
	}
	if dc.wrote != 3 {
		t.Fatalf("wrote %d bytes, want 3", dc.wrote)
	}
	if len(dc.deadlines) != 2 {
		t.Fatalf("got %d SetWriteDeadline calls, want arm+clear", len(dc.deadlines))
	}
	if dc.deadlines[0].IsZero() || !dc.deadlines[1].IsZero() {
		t.Fatalf("deadline sequence %v: want non-zero arm then zero clear", dc.deadlines)
	}
	// An empty write must not touch the deadline.
	c.send(nil)
	if len(dc.deadlines) != 2 {
		t.Fatal("empty write touched the write deadline")
	}
	// A failing SetWriteDeadline must surface instead of being ignored.
	dc.failSet = true
	c.send([]byte("x"))
	if !c.failed || !dc.closed {
		t.Fatalf("SetWriteDeadline failure swallowed (failed %v, closed %v)", c.failed, dc.closed)
	}
	if dc.wrote != 3 {
		t.Fatalf("wrote %d bytes after the fault, want 3", dc.wrote)
	}
	// Later runs are discarded without touching the socket.
	dc.failSet = false
	c.send([]byte("y"))
	if dc.wrote != 3 || len(dc.deadlines) != 2 {
		t.Fatal("write after the fault reached the socket")
	}
}

// smallBufListener shrinks every accepted socket's send buffer, so a client
// that stops reading fills its kernel buffers after a few kilobytes.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return nc, err
}

// TestStalledReaderReleasesLane pins the slow-consumer bound (DESIGN.md §8.5).
// The worker writes its connections' responses itself, so a client that
// keeps sending but never reads stalls the whole lane once its kernel socket
// buffers are full — for at most WriteTimeout, after which its connection is
// closed and the lane's other connections resume. Client A is that client;
// client B shares the one lane and sends a paced stream. B's records must
// show exactly that stall (one gap of about WriteTimeout, no longer), A's
// connection must be cut, B must get every record back in order, and at
// quiesce every assembled event must be served, dropped or bad.
func TestStalledReaderReleasesLane(t *testing.T) {
	const writeTimeout = 200 * time.Millisecond
	cfg := testConfig()
	s, err := New(Config{
		Pipeline:     cfg,
		Workers:      1,
		QueueDepth:   16,
		Policy:       PolicyBlock,
		WriteTimeout: writeTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveOn(t, s, smallBufListener{ln})
	addr := ln.Addr().String()
	events := makeEvents(t, cfg, 500, 5)

	// Client B: one event per millisecond until stopped, every record read
	// and timestamped as it arrives.
	b, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	stopB := make(chan struct{})
	sentB := make(chan int, 1)
	go func() {
		sw := adapt.NewStreamWriter(b)
		n := 0
		defer func() {
			b.(*net.TCPConn).CloseWrite()
			sentB <- n
		}()
		for ; ; n++ {
			select {
			case <-stopB:
				return
			default:
			}
			if err := sw.WriteEvent(events[n%len(events)]); err != nil {
				t.Errorf("client B write: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	type arrival struct {
		event uint32
		at    time.Time
	}
	gotB := make(chan []arrival, 1)
	go func() {
		var arr []arrival
		br := bufio.NewReader(b)
		var hdr [8]byte
		for {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				if err != io.EOF {
					t.Errorf("client B read: %v", err)
				}
				gotB <- arr
				return
			}
			arr = append(arr, arrival{binary.BigEndian.Uint32(hdr[:4]), time.Now()})
			islands := int64(binary.BigEndian.Uint32(hdr[4:]))
			if _, err := io.CopyN(io.Discard, br, islands*adapt.RecordIslandBytes); err != nil {
				t.Errorf("client B record body: %v", err)
				gotB <- arr
				return
			}
		}
	}()

	// Client A: the same events over and over, never a read, until the
	// server cuts it off.
	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var stream bytes.Buffer
	sw := adapt.NewStreamWriter(&stream)
	for _, ev := range events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	cutA := make(chan struct{})
	go func() {
		defer close(cutA)
		for {
			if _, err := a.Write(stream.Bytes()); err != nil {
				return
			}
		}
	}()
	select {
	case <-cutA:
	case <-time.After(20 * time.Second):
		t.Fatalf("the stalled client was never cut off: %+v", s.StatsSnapshot())
	}
	// Let B run on past the stall, then finish it.
	time.Sleep(3 * writeTimeout)
	close(stopB)
	n := <-sentB
	arr := <-gotB

	if len(arr) != n {
		t.Fatalf("client B sent %d events, got %d records", n, len(arr))
	}
	var gap time.Duration
	for i, r := range arr {
		if want := events[i%len(events)][0].Event; r.event != want {
			t.Fatalf("client B record %d is event %d, want %d (per-connection order)", i, r.event, want)
		}
		if i > 0 {
			gap = max(gap, r.at.Sub(arr[i-1].at))
		}
	}
	t.Logf("client B: %d records, longest gap %v", len(arr), gap)
	// The lane stalls once, when A's buffers are full, for WriteTimeout;
	// B's next records follow as soon as the deadline cuts A off.
	if gap < writeTimeout/2 || gap > writeTimeout+300*time.Millisecond {
		t.Fatalf("longest gap in client B's records %v, want about one WriteTimeout (%v)", gap, writeTimeout)
	}

	// Quiesce: both connections retired, then the books must balance.
	var snap Snapshot
	for i := 0; ; i++ {
		if snap = s.StatsSnapshot(); snap.ConnsActive == 0 {
			break
		}
		if i > 500 {
			t.Fatalf("%d connections never retired", snap.ConnsActive)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.EventsIn != snap.EventsOut+snap.Dropped+snap.BadEvents {
		t.Fatalf("in %d != out %d + dropped %d + bad %d",
			snap.EventsIn, snap.EventsOut, snap.Dropped, snap.BadEvents)
	}
	if snap.Dropped != 0 || snap.IncompleteEvents > 1 {
		t.Fatalf("dropped %d, incomplete %d: want none dropped and at most A's cut event",
			snap.Dropped, snap.IncompleteEvents)
	}
}

// flakyListener feeds Accept a burst of timeout errors, then a permanent
// error, so the backoff path and the give-up path are both exercised.
type flakyListener struct {
	timeouts int
	closed   chan struct{}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "simulated accept timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

var errPermanent = errors.New("permanent accept failure")

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.timeouts > 0 {
		l.timeouts--
		return nil, timeoutErr{}
	}
	return nil, errPermanent
}

func (l *flakyListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestAcceptBackoffRetriesTimeouts: timeout errors are retried with growing
// sleeps; only the permanent error ends Serve.
func TestAcceptBackoffRetriesTimeouts(t *testing.T) {
	s, err := New(Config{Pipeline: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ln := &flakyListener{timeouts: 3, closed: make(chan struct{})}
	start := time.Now()
	err = s.Serve(ln)
	elapsed := time.Since(start)
	if !errors.Is(err, errPermanent) {
		t.Fatalf("Serve returned %v, want the permanent error", err)
	}
	// 3 retries at 5+10+20ms minimum.
	if elapsed < 35*time.Millisecond {
		t.Fatalf("Serve returned after %v; backoff sleeps missing", elapsed)
	}
}
