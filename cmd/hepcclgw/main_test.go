package main

import (
	"context"
	"io"
	"net"
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

// TestRelayOneEvent starts hepcclgw through run in front of one in-process
// hepccld, relays one event to its record on the offering connection, and
// stops it: run drains, logs the exact ledger and returns nil.
func TestRelayOneEvent(t *testing.T) {
	pcfg := adapt.DefaultADAPT()
	pcfg.ASICs, pcfg.SamplesPerChannel = 4, 4
	srv, err := server.New(server.Config{
		Pipeline: pcfg, Workers: 1, QueueDepth: 8, Policy: server.PolicyBlock, StatsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil || srv.StatsAddr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("hepccld never bound")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs lockedLog
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-config", "adapt", "-asics", "4",
			"-backends", srv.Addr().String() + "=" + srv.StatsAddr().String(),
		}, &logs)
	}()
	relaying := regexp.MustCompile(`relaying on (\S+) to 1 backends`)
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
