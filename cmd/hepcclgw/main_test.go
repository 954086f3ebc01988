package main

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// lockedLog is the gateway's log output, written by its goroutines and read
// by the test.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestBuildConfig resolves -config through the resolver hepccld uses, so the
// gateway can front any daemon geometry, and names bad input.
func TestBuildConfig(t *testing.T) {
	for _, tc := range []struct {
		config string
		asics  int
	}{{"cta", 116}, {"adapt", 20}, {"8x8", 4}, {"512x512", 16384}} {
		cfg, err := buildConfig(tc.config, "127.0.0.1:9310=127.0.0.1:9311")
		if err != nil {
			t.Fatalf("-config %s: %v", tc.config, err)
		}
		if cfg.ASICs != tc.asics || len(cfg.Backends) != 1 {
			t.Fatalf("-config %s: %d frames per event, %d backends; want %d, 1", tc.config, cfg.ASICs, len(cfg.Backends), tc.asics)
		}
	}
	for _, tc := range []struct{ config, backends, want string }{
		{"8x8x9", "a=b", "-config"},
		{"nope", "a=b", "-config"},
		{"cta", "", "-backends"},
		{"cta", "a", "dataAddr=statsAddr"},
	} {
		if _, err := buildConfig(tc.config, tc.backends); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("-config %q -backends %q: got %v, want an error naming %s", tc.config, tc.backends, err, tc.want)
		}
	}
	if err := run(context.Background(), []string{"-asics", "4"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-asics left with -config RxC: got %v", err)
	}
}

// TestRelayOneEvent starts hepcclgw through run, with its admin port, in
// front of one in-process hepccld, relays one event to its record on the
// offering connection, and stops it: run drains, logs the exact ledger and
// returns nil.
func TestRelayOneEvent(t *testing.T) {
	pcfg := adapt.DefaultADAPT()
	pcfg.ASICs, pcfg.SamplesPerChannel = 4, 4
	srv, err := server.New(server.Config{
		Pipeline: pcfg, Workers: 1, QueueDepth: 8, Policy: server.PolicyBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(backend)
	stats := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		stats.Close()
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs lockedLog
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-stats", "127.0.0.1:0", "-config", "8x8",
			"-backends", backend.Addr().String() + "=" + stats.Listener.Addr().String(),
		}, &logs)
	}()
	relaying := regexp.MustCompile(`relaying on (\S+) to 1 backends`)
	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for addr == "" {
		if m := relaying.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("hepcclgw never bound; log:\n%s", logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	rng := detector.NewRNG(3)
	tracker := detector.DefaultTracker()
	tracker.Channels = pcfg.ASICs * adapt.ChannelsPerASIC
	dig := detector.DefaultDigitizer()
	dig.Samples = pcfg.SamplesPerChannel
	const id = 4242
	event, err := adapt.GenerateEvent(tracker.Event(rng).Values, pcfg.ASICs, id, 0, dig, rng)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := adapt.NewStreamWriter(nc).WriteEvent(event); err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).CloseWrite()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := adapt.NewRecordScanner(nc, nil)
	rec, err := sc.Next()
	if err != nil {
		t.Fatalf("no record relayed: %v", err)
	}
	if got := adapt.RecordEventID(rec); got != id {
		t.Fatalf("relayed the record of event %d, want %d", got, id)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after the one record: %v, want EOF", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hepcclgw did not stop")
	}
	if !strings.Contains(logs.String(), "drained: offered=1 relayed=1 shed=0 inflight=0") {
		t.Fatalf("missing the drained ledger; log:\n%s", logs.String())
	}
}

// TestRunFailsOnOccupiedStatsPort: a -stats address that cannot be bound is a
// startup error, not a gateway relaying without its admin endpoint.
func TestRunFailsOnOccupiedStatsPort(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-config", "8x8", "-stats", occupied.Addr().String(),
			"-backends", "127.0.0.1:1=127.0.0.1:1",
		}, io.Discard)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "stats endpoint") {
			t.Fatalf("run with an occupied -stats port: %v, want a stats endpoint error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hepcclgw kept relaying without its admin endpoint")
	}
}
