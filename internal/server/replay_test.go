package server

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/chaos"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// recordChaosRun streams n seeded, chaos-mutated events through a recording
// block-policy server and returns how many events made it into the log.
func recordChaosRun(t *testing.T, dir string, n int) uint64 {
	t.Helper()
	cfg := testConfig()
	s, err := New(Config{
		Pipeline:  cfg,
		Workers:   2,
		Policy:    PolicyBlock,
		RecordDir: dir,
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

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan int, 1)
	go func() {
		k, _ := countRecords(nc)
		drained <- k
	}()

	template := makeEvents(t, cfg, 1, 99)[0]
	frames := make([][]byte, len(template))
	for i := range template {
		f, err := template[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	inj := chaos.NewFrameInjector(chaos.FrameConfig{
		Seed:     0xD0_0D,
		BitFlip:  0.01,
		Truncate: 0.01,
	})
	for ev := 0; ev < n; ev++ {
		for _, f := range frames {
			if err := adapt.PatchFrameEventID(f, uint32(ev)); err != nil {
				t.Fatal(err)
			}
			chunks, _ := inj.Mutate(f)
			for _, c := range chunks {
				if _, err := nc.Write(c); err != nil {
					t.Fatalf("event %d: %v", ev, err)
				}
			}
		}
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		nc.Close()
	}
	<-drained
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}

	sc, err := wal.NewScanner(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		if _, err := sc.Next(); err != nil {
			break
		}
	}
	if sc.Torn() != 0 {
		t.Fatalf("cleanly shut-down log has %d torn segments", sc.Torn())
	}
	return sc.Records()
}

// replayTuple is the accounting fingerprint one replay must reproduce.
type replayTuple struct {
	in, out, dropped, bad, incomplete uint64
	downlinkRecords, downlinkBytes    uint64
	crc                               uint32
}

// replayOnce replays dir into a fresh block-policy server and returns the
// combined server+client accounting.
func replayOnce(t *testing.T, dir string, rate float64) replayTuple {
	t.Helper()
	s, err := New(Config{
		Pipeline: testConfig(),
		Workers:  2,
		Policy:   PolicyBlock,
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

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Replay(ctx, ReplayOptions{Addr: ln.Addr().String(), Dir: dir, Rate: rate})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	snap := s.StatsSnapshot()
	return replayTuple{
		in: snap.EventsIn, out: snap.EventsOut, dropped: snap.Dropped,
		bad: snap.BadEvents, incomplete: snap.IncompleteEvents,
		downlinkRecords: res.DownlinkRecords, downlinkBytes: res.DownlinkBytes,
		crc: res.DownlinkCRC,
	}
}

// TestReplayDeterminism is the replay-check gate: record a seeded-chaos run,
// replay the log twice, and require byte-identical accounting — same
// served/dropped/bad/incomplete counts and the same downlink CRC — plus
// agreement between the log and what each replay served.
func TestReplayDeterminism(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 1000
	}
	dir := t.TempDir()
	recorded := recordChaosRun(t, dir, n)
	if recorded == 0 || recorded >= uint64(n) {
		// Chaos must have culled some events but nowhere near all: the log
		// holds exactly the decoded survivors.
		t.Fatalf("recorded %d of %d offered events; fault mix is broken", recorded, n)
	}
	t.Logf("recorded %d of %d offered events", recorded, n)

	a := replayOnce(t, dir, 0)
	b := replayOnce(t, dir, 0)
	if a != b {
		t.Fatalf("replays diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
	if a.in != recorded {
		t.Errorf("replay ingested %d events, log holds %d", a.in, recorded)
	}
	if a.out+a.bad != recorded || a.dropped != 0 || a.incomplete != 0 {
		t.Errorf("replay of a clean log under block policy must account for everything: %+v (recorded %d)", a, recorded)
	}
	if a.downlinkRecords != a.out {
		t.Errorf("client framed %d records, server served %d", a.downlinkRecords, a.out)
	}
	if a.crc == 0 {
		t.Error("downlink CRC is zero; fingerprint is vacuous")
	}
}

// TestWALSourceAcrossWriterRestart: every writer stamps from its own Open, so
// a log recorded across a restart holds a stamp below its predecessor's. The
// replay clock must stay monotone through it: every Due is non-decreasing,
// the recorded gap inside a session survives, and no Due lies past the
// recording's wall-clock span over the rate.
func TestWALSourceAcrossWriterRestart(t *testing.T) {
	const gap = 50 * time.Millisecond
	dir := t.TempDir()
	start := time.Now()
	session := func(events ...uint32) {
		w, _, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			if i > 0 {
				time.Sleep(gap)
			}
			if err := w.Append(ev, []byte{byte(ev)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	session(1, 2)
	session(3)
	span := time.Since(start)

	for _, rate := range []float64{1, 2} {
		sc, err := wal.NewScanner(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := &walSource{sc: sc, rate: rate}
		var dues []time.Duration
		for {
			ev, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			dues = append(dues, ev.Due)
		}
		sc.Close()
		if len(dues) != 3 {
			t.Fatalf("rate %g: %d records, want 3", rate, len(dues))
		}
		limit := time.Duration(float64(span) / rate)
		for i, due := range dues {
			if due < 0 || due > limit {
				t.Fatalf("rate %g: record %d due at %v, outside [0, %v]", rate, i, due, limit)
			}
			if i > 0 && due < dues[i-1] {
				t.Fatalf("rate %g: record %d due at %v, before record %d at %v", rate, i, due, i-1, dues[i-1])
			}
		}
		if want := time.Duration(float64(gap) / rate); dues[1] < want {
			t.Fatalf("rate %g: recorded gap replays as %v, want at least %v", rate, dues[1], want)
		}
	}
}
