package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// TestPipelineConfig resolves -config names through adapt.NamedConfig, the
// resolver hepccld and hepcclgw share.
func TestPipelineConfig(t *testing.T) {
	cfg, err := adapt.NamedConfig("cta", 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ASICs != 116 || cfg.SamplesPerChannel != 4 {
		t.Fatalf("cta/4 -> %d ASICs, %d samples", cfg.ASICs, cfg.SamplesPerChannel)
	}
	cfg, err = adapt.NamedConfig("adapt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SamplesPerChannel != 16 {
		t.Fatalf("samples=0 must keep the default, got %d", cfg.SamplesPerChannel)
	}
	cfg, err = adapt.NamedConfig("512x512", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ASICs != 512*512/adapt.ChannelsPerASIC {
		t.Fatalf("512x512 -> %d ASICs", cfg.ASICs)
	}
	for _, name := range []string{"nope", "8x8x9", "8x", "x8", "0x8", "8x-1", ""} {
		if _, err := adapt.NamedConfig(name, 4); err == nil || !strings.Contains(err.Error(), "-config") {
			t.Fatalf("config %q: got %v, want an unknown -config error", name, err)
		}
	}
	// The command rejects a trailing-junk geometry before sending anything.
	var out strings.Builder
	if err := run([]string{"-config", "8x8x9", "-addr", "127.0.0.1:1"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-config") || out.Len() != 0 {
		t.Fatalf("-config 8x8x9: got %v after output %q, want an unknown -config error first", err, out.String())
	}
}

// TestDigitizeTemplatesRoundTrip parses the pre-serialized streams back with
// the real stream reader: every template must be one complete event with the
// expected id, ASIC count, and window length.
func TestDigitizeTemplatesRoundTrip(t *testing.T) {
	cfg, err := adapt.NamedConfig("adapt", 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	templs, wire, err := digitizeTemplates(cfg, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range templs {
		if len(tp.stream) != wire {
			t.Fatalf("template %d is %d bytes, reported %d", i, len(tp.stream), wire)
		}
		if len(tp.patch) != cfg.ASICs || wire%cfg.ASICs != 0 {
			t.Fatalf("template %d has %d frame patchers for %d bytes, want %d equal frames",
				i, len(tp.patch), wire, cfg.ASICs)
		}
		// The stream parses as the template's own event, and again after its
		// patchers rewrite every frame's id (checksums included).
		frameLen := wire / cfg.ASICs
		for _, id := range []uint32{uint32(i), 1<<20 + uint32(i)} {
			for j, fp := range tp.patch {
				fp.SetEventID(tp.stream[j*frameLen:(j+1)*frameLen], id)
			}
			sr := adapt.NewStreamReader(bytes.NewReader(tp.stream))
			packets, err := sr.ReadEventInto(nil, cfg.ASICs)
			if err != nil {
				t.Fatalf("template %d as event %d: %v", i, id, err)
			}
			if packets[0].Event != id {
				t.Fatalf("template %d carries event id %d, want %d", i, packets[0].Event, id)
			}
			for _, p := range packets {
				if int(p.SamplesPerChannel) != cfg.SamplesPerChannel {
					t.Fatalf("template %d: %d samples on the wire, want %d",
						i, p.SamplesPerChannel, cfg.SamplesPerChannel)
				}
			}
			if sr.SkippedBytes != 0 || sr.BadPackets != 0 {
				t.Fatalf("template %d: skipped=%d bad=%d", i, sr.SkippedBytes, sr.BadPackets)
			}
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run([]string{"-events", "2", "-conns", "5"}, io.Discard); err == nil {
		t.Fatal("conns > events must fail")
	}
	if err := run([]string{"-config", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown config must fail")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag must fail")
	}
	if err := run([]string{"-corrupt", "1.5"}, io.Discard); err == nil {
		t.Fatal("corrupt probability >= 1 must fail")
	}
	if err := run([]string{"-disconnect", "-0.1"}, io.Discard); err == nil {
		t.Fatal("negative disconnect probability must fail")
	}
	if err := run([]string{"-dial-retries", "0"}, io.Discard); err == nil {
		t.Fatal("zero dial retries must fail")
	}
	if err := run([]string{"-templates", "0"}, io.Discard); err == nil {
		t.Fatal("zero templates must fail")
	}
	// A run that sends nothing reports its loss without a fraction.
	var out strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:1", "-events", "1", "-conns", "1", "-dial-retries", "1"}, &out); err == nil {
		t.Fatal("an unreachable target must fail")
	}
	if s := out.String(); strings.Contains(s, "NaN") || !strings.Contains(s, "lost     0 events, wall") {
		t.Fatalf("nothing sent; want a lost line without a fraction:\n%s", s)
	}
}

// startDaemon serves the adapt configuration from an in-process block-policy
// daemon on a loopback port, shut down when the test ends.
func startDaemon(t *testing.T) (*server.Server, string) {
	t.Helper()
	pcfg, err := adapt.NamedConfig("adapt", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Pipeline:   pcfg,
		Workers:    1,
		QueueDepth: 8,
		Policy:     server.PolicyBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

// TestLoadgenEndToEnd runs the generator against an in-process daemon with
// the blocking policy: every offered event must come back as a record.
func TestLoadgenEndToEnd(t *testing.T) {
	srv, addr := startDaemon(t)

	var out bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-config", "adapt", "-samples", "4",
		"-events", "60", "-conns", "3", "-rate", "0",
		"-templates", "4", "-timeout", "10s",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "lost     0 events") {
		t.Fatalf("block policy must lose nothing:\n%s", out.String())
	}
	snap := srv.StatsSnapshot()
	if snap.EventsIn != 60 || snap.EventsOut != 60 || snap.Dropped != 0 {
		t.Fatalf("server counted in=%d out=%d dropped=%d, want 60/60/0",
			snap.EventsIn, snap.EventsOut, snap.Dropped)
	}
}

// TestLoadgenChaosAccounting runs the fault-injecting path against an
// in-process daemon and balances the books: with clean-kill faults and the
// blocking policy, every offered event is either served or incomplete, and
// the incomplete count equals the generator's corrupted + partial tally.
func TestLoadgenChaosAccounting(t *testing.T) {
	srv, addr := startDaemon(t)

	const offered = 400
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-config", "adapt", "-samples", "4",
		"-events", "400", "-conns", "2", "-rate", "0",
		"-templates", "4", "-timeout", "10s",
		"-corrupt", "0.01", "-disconnect", "0.05", "-fault-seed", "7",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "faults   ") {
		t.Fatalf("chaos run must report a fault summary:\n%s", out.String())
	}
	snap := srv.StatsSnapshot()
	if snap.EventsIn != snap.EventsOut || snap.Dropped != 0 || snap.BadEvents != 0 {
		t.Fatalf("block policy must serve everything assembled: %+v", snap.CounterSnapshot)
	}
	if got := snap.EventsOut + snap.IncompleteEvents; got != offered {
		t.Fatalf("served %d + incomplete %d = %d, want every offered event (%d)\n%s",
			snap.EventsOut, snap.IncompleteEvents, got, offered, out.String())
	}
	if snap.IncompleteEvents == 0 {
		t.Fatalf("seed 7 at these probabilities must kill at least one event:\n%s", out.String())
	}
	// The generator's own books must agree with the server's.
	lost := offered - int(snap.EventsOut)
	if want := fmt.Sprintf("= %d explained", lost); !strings.Contains(out.String(), want) {
		t.Fatalf("fault summary does not explain the %d lost events:\n%s", lost, out.String())
	}
}

// TestLoadgenArrivalModes runs the paced and Poisson modes README's 15k ev/s
// command uses, and the unpaced one, against an in-process block-policy
// daemon: each loses nothing, names its arrival process in the banner only
// when paced, and reports client latency for every event.
func TestLoadgenArrivalModes(t *testing.T) {
	for _, tc := range []struct {
		name, banner, latency string
		args                  []string
	}{
		{"paced", "target 3000 ev/s (paced),", "latency  p50=", []string{"-rate", "3000"}},
		{"poisson", "target 3000 ev/s (Poisson),", "latency  p50=", []string{"-rate", "3000", "-poisson"}},
		{"unpaced", "target unpaced,", "saturation: max sustained ", []string{"-rate", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startDaemon(t)
			const events = 300
			var out bytes.Buffer
			err := run(append([]string{
				"-addr", addr,
				"-config", "adapt", "-samples", "4",
				"-events", fmt.Sprint(events), "-conns", "2",
				"-templates", "4", "-timeout", "10s", "-burst", "1ms",
			}, tc.args...), &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			for _, want := range []string{
				tc.banner,
				"lost     0 events",
				tc.latency,
				fmt.Sprintf("(%d matched)", events),
			} {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output lacks %q:\n%s", want, out.String())
				}
			}
			snap := srv.StatsSnapshot()
			if snap.EventsIn != events || snap.EventsOut != events || snap.Dropped != 0 {
				t.Fatalf("server counted in=%d out=%d dropped=%d, want %d/%d/0",
					snap.EventsIn, snap.EventsOut, snap.Dropped, events, events)
			}
		})
	}
}
