package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// TestTrickleFlushesPromptly guards the bounded linger in the batch worker
// loop: paced trickle traffic — each event sent only after the previous
// response came back, so the worker's lane never holds more than one event —
// must still see every response promptly. The linger is a single yield and
// re-poll; a variant that waited for a fuller batch would stall every
// iteration of this loop and trip the per-event read deadline.
func TestTrickleFlushesPromptly(t *testing.T) {
	cfg := testConfig()
	_, addr := startServer(t, Config{Pipeline: cfg, Workers: 1, QueueDepth: 8, Policy: PolicyBlock})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const n = 25
	events := makeEvents(t, cfg, n, 7)
	sw := adapt.NewStreamWriter(nc)
	var hdr [8]byte
	for i, ev := range events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatalf("event %d: write: %v", i, err)
		}
		if err := nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			t.Fatalf("event %d: response did not flush promptly: %v", i, err)
		}
		if got := binary.BigEndian.Uint32(hdr[:4]); got != uint32(i) {
			t.Fatalf("event %d: got response for event %d", i, got)
		}
		body := make([]byte, adapt.RecordIslandBytes*int(binary.BigEndian.Uint32(hdr[4:])))
		if _, err := io.ReadFull(nc, body); err != nil {
			t.Fatalf("event %d: record body: %v", i, err)
		}
		// Pace the trickle: leave the worker blocked on its lane between events so
		// every drain is a batch of one.
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPacedServiceInterval pins the pacer inside the one worker loop from
// below only, so a slow host cannot flake it: a backlog is served no faster
// than the service interval, and slots that went unused while the lane sat
// idle are not banked — a burst after a pause is paced from its first event,
// not served at once against the arrears.
func TestPacedServiceInterval(t *testing.T) {
	const rate = 2000 // events/s: a 500 µs slot
	cfg := testConfig()
	_, addr := startServer(t, Config{Pipeline: cfg, QueueDepth: 8, Policy: PolicyBlock, PaceRate: rate})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// burst puts events on the wire in one write — so the reader finds them
	// all at once and the lane holds a backlog from the first service slot —
	// and returns how long the last response took to arrive, clocked from
	// before the first byte left. (A sender that trickles is not paced at
	// all: an event arriving after the lane has sat empty for 20 µs opens a
	// fresh schedule and is served on arrival.)
	burst := func(events [][]adapt.Packet) time.Duration {
		var wire bytes.Buffer
		sw := adapt.NewStreamWriter(&wire)
		for _, ev := range events {
			if err := sw.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		if _, err := nc.Write(wire.Bytes()); err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		for range events {
			if _, err := io.ReadFull(nc, hdr[:]); err != nil {
				t.Fatalf("record header: %v", err)
			}
			body := int64(adapt.RecordIslandBytes) * int64(binary.BigEndian.Uint32(hdr[4:]))
			if _, err := io.CopyN(io.Discard, nc, body); err != nil {
				t.Fatalf("record body: %v", err)
			}
		}
		return time.Since(start)
	}
	// n events occupy n-1 intervals; the tenth off covers the 200 µs the
	// pacer may run ahead of its schedule instead of sleeping.
	floor := func(n int) time.Duration { return time.Duration(n-1) * time.Second / rate * 9 / 10 }

	events := makeEvents(t, cfg, 60, 5)
	backlog, after := events[:40], events[40:]
	if d := burst(backlog); d < floor(len(backlog)) {
		t.Fatalf("%d queued events served in %v, want >= %v at %d ev/s", len(backlog), d, floor(len(backlog)), rate)
	}
	time.Sleep(50 * time.Millisecond) // a hundred slots go unused
	if d := burst(after); d < floor(len(after)) {
		t.Fatalf("%d events after an idle gap served in %v, want >= %v: idle slots were banked", len(after), d, floor(len(after)))
	}
}
