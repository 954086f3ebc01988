package main

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/leakcheck"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// buildConfig resolves a hepccld argument list into the server
// configuration run would build from it.
func buildConfig(args ...string) (server.Config, error) {
	fs := flag.NewFlagSet("hepccld", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg server.Config
	resolve := configFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	return cfg, resolve()
}

func TestBuildConfigCTA(t *testing.T) {
	cfg, err := buildConfig("-config", "cta", "-samples", "4", "-workers", "2", "-queue", "32",
		"-policy", "drop", "-pace-hw", "-calibration", "10", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pipeline.ASICs != 116 || cfg.Pipeline.SamplesPerChannel != 4 {
		t.Fatalf("pipeline config = %d ASICs, %d samples; want 116, 4",
			cfg.Pipeline.ASICs, cfg.Pipeline.SamplesPerChannel)
	}
	if cfg.Workers != 2 || cfg.QueueDepth != 32 {
		t.Fatalf("workers=%d queue=%d, want 2, 32", cfg.Workers, cfg.QueueDepth)
	}
	p, err := adapt.New(cfg.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != server.PolicyDrop || cfg.PaceRate != p.EventsPerSecond() || cfg.PaceRate <= 0 {
		t.Fatalf("policy=%v paceRate=%g, want drop at the modeled %g ev/s",
			cfg.Policy, cfg.PaceRate, p.EventsPerSecond())
	}
	if want := cfg.Pipeline.ASICs * adapt.ChannelsPerASIC; len(cfg.Pedestals) != want {
		t.Fatalf("calibration measured %d pedestals, want %d", len(cfg.Pedestals), want)
	}
	// The resolved config must actually construct a server.
	newServer(t, cfg)
}

func TestBuildConfigADAPTKeepsSamples(t *testing.T) {
	cfg, err := buildConfig("-config", "adapt", "-samples", "0", "-workers", "1", "-queue", "8",
		"-policy", "block", "-calibration", "0", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pipeline.SamplesPerChannel != 16 {
		t.Fatalf("samples=0 must keep the config default 16, got %d", cfg.Pipeline.SamplesPerChannel)
	}
	if cfg.Policy != server.PolicyBlock {
		t.Fatalf("policy=%v, want block", cfg.Policy)
	}
	if cfg.Pedestals != nil {
		t.Fatalf("calibration=0 must keep nominal pedestals, got %d measured", len(cfg.Pedestals))
	}
}

// TestBuildConfigHardening: the fault-tolerance flags must flow through to
// the server configuration verbatim.
func TestBuildConfigHardening(t *testing.T) {
	cfg, err := buildConfig("-config", "adapt", "-samples", "0", "-workers", "1", "-queue", "8",
		"-policy", "drop", "-calibration", "0", "-seed", "1",
		"-idle-timeout", "90s", "-assembly-timeout", "2s",
		"-breaker-bad-packets", "512", "-breaker-window", "3s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IdleTimeout != 90*time.Second || cfg.AssemblyTimeout != 2*time.Second {
		t.Fatalf("timeouts = %v/%v", cfg.IdleTimeout, cfg.AssemblyTimeout)
	}
	if cfg.BreakerBadPackets != 512 || cfg.BreakerWindow != 3*time.Second {
		t.Fatalf("breaker = %d/%v", cfg.BreakerBadPackets, cfg.BreakerWindow)
	}
	newServer(t, cfg)
}

// newServer builds a server from cfg and shuts its workers down with t, so
// no test leaves a worker behind for TestRunDrainsOnListenFailure to see.
func newServer(t *testing.T, cfg server.Config) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
}

func TestBuildConfigErrors(t *testing.T) {
	base := []string{"-workers", "1", "-queue", "8", "-calibration", "0", "-seed", "1"}
	with := func(args ...string) []string { return append(append([]string(nil), base...), args...) }
	for _, name := range []string{"nope", "8x8x9", "512x", "0x512"} {
		if _, err := buildConfig(with("-config", name, "-samples", "4", "-policy", "drop")...); err == nil ||
			!strings.Contains(err.Error(), "-config") {
			t.Fatalf("bad config name %q: got %v", name, err)
		}
	}
	if _, err := buildConfig(with("-config", "cta", "-samples", "4", "-policy", "spill")...); err == nil ||
		!strings.Contains(err.Error(), "-policy") {
		t.Fatalf("bad policy name: got %v", err)
	}
	if _, err := buildConfig(with("-config", "cta", "-samples", "0", "-policy", "drop", "-pace-hw", "-pace-rate", "1000")...); err == nil ||
		!strings.Contains(err.Error(), "-pace-rate") {
		t.Fatalf("two service intervals: got %v", err)
	}
	if _, err := buildConfig(with("-config", "cta", "-samples", "0", "-policy", "drop", "-record", "/data/wal", "-record-retain", "-1")...); err == nil ||
		!strings.Contains(err.Error(), "-record-retain") {
		t.Fatalf("negative retention: got %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-config", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown config must fail before listening")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag must fail")
	}
	if err := run([]string{"-full"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-full left with the cycle-accurate serving mode (experiments pipe runs it): got %v", err)
	}
	if err := run([]string{"-record", "/tmp/x", "-replay", "/tmp/x"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "same directory") {
		t.Fatalf("record and replay over one directory must fail: got %v", err)
	}
	if err := run([]string{"-replay-rate", "-1"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-replay-rate") {
		t.Fatalf("negative replay rate must fail: got %v", err)
	}
}

// TestBuildConfigRecordFlags: the durability flags must flow through.
func TestBuildConfigRecordFlags(t *testing.T) {
	cfg, err := buildConfig("-config", "adapt", "-samples", "0", "-workers", "1", "-queue", "8",
		"-policy", "block", "-calibration", "0", "-seed", "1",
		"-record", "/data/wal", "-record-segment-mb", "16", "-record-retain", "4")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RecordDir != "/data/wal" || cfg.RecordSegmentBytes != 16<<20 || cfg.RecordRetain != 4 {
		t.Fatalf("record config = %q/%d/%d", cfg.RecordDir, cfg.RecordSegmentBytes, cfg.RecordRetain)
	}
}

// TestRunReplayEmptyLog: -replay over an empty directory must come up, serve
// zero events, print the summary, and exit cleanly.
func TestRunReplayEmptyLog(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-config", "adapt", "-policy", "block", "-calibration", "0",
		"-listen", "127.0.0.1:0", "-log-interval", "0",
		"-replay", t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("replay over empty log: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay: events=0") {
		t.Fatalf("missing replay summary:\n%s", out.String())
	}
}

// TestRunFailsOnOccupiedStatsPort: a -stats address that cannot be bound is a
// startup error, not a daemon serving without /stats and /healthz.
func TestRunFailsOnOccupiedStatsPort(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-config", "adapt", "-calibration", "0", "-listen", "127.0.0.1:0",
			"-log-interval", "0", "-stats", occupied.Addr().String(),
		}, io.Discard)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "stats endpoint") {
			t.Fatalf("run with an occupied -stats port: %v, want a stats endpoint error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hepccld kept serving without its stats endpoint")
	}
}

// TestRunDrainsOnListenFailure: a -listen address that cannot be bound fails
// run with an error naming it, and only after the workers server.New started
// have exited. Shutdown waits on the workers, so none may outlive run.
func TestRunDrainsOnListenFailure(t *testing.T) {
	leakcheck.Check(t)
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	addr := occupied.Addr().String()
	err = run([]string{
		"-config", "adapt", "-calibration", "0", "-workers", "2", "-listen", addr,
		"-log-interval", "0", "-stats", "127.0.0.1:0",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("run with an occupied -listen port: %v, want an error naming %s", err, addr)
	}
}

// TestAdminHandlerPprof: -pprof mounts /debug/pprof/ in front of the
// server's routes; without it the path is the server's 404.
func TestAdminHandlerPprof(t *testing.T) {
	stats := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
		}
	})
	for _, tc := range []struct {
		pprof    bool
		path     string
		wantCode int
	}{
		{false, "/stats", http.StatusOK},
		{false, "/debug/pprof/", http.StatusNotFound},
		{true, "/stats", http.StatusOK},
		{true, "/debug/pprof/", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		adminHandler(stats, tc.pprof).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != tc.wantCode {
			t.Errorf("-pprof=%v GET %s: %d, want %d", tc.pprof, tc.path, rec.Code, tc.wantCode)
		}
	}
}
