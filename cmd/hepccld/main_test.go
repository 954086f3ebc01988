package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/server"
)

func TestBuildConfigCTA(t *testing.T) {
	cfg, err := buildConfig(daemonOpts{
		config: "cta", samples: 4, workers: 2, queue: 32, policy: "drop",
		paceHW: true, calibration: 10, seed: 1,
	})
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
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
}

func TestBuildConfigADAPTKeepsSamples(t *testing.T) {
	cfg, err := buildConfig(daemonOpts{
		config: "adapt", workers: 1, queue: 8, policy: "block", seed: 1,
	})
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
	cfg, err := buildConfig(daemonOpts{
		config: "adapt", workers: 1, queue: 8, policy: "drop", seed: 1,
		idleTimeout:       90 * time.Second,
		assemblyTimeout:   2 * time.Second,
		breakerBadPackets: 512,
		breakerWindow:     3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IdleTimeout != 90*time.Second || cfg.AssemblyTimeout != 2*time.Second {
		t.Fatalf("timeouts = %v/%v", cfg.IdleTimeout, cfg.AssemblyTimeout)
	}
	if cfg.BreakerBadPackets != 512 || cfg.BreakerWindow != 3*time.Second {
		t.Fatalf("breaker = %d/%v", cfg.BreakerBadPackets, cfg.BreakerWindow)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig(daemonOpts{config: "nope", samples: 4, workers: 1, queue: 8, policy: "drop", seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "-config") {
		t.Fatalf("bad config name: got %v", err)
	}
	if _, err := buildConfig(daemonOpts{config: "cta", samples: 4, workers: 1, queue: 8, policy: "spill", seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "-policy") {
		t.Fatalf("bad policy name: got %v", err)
	}
	if _, err := buildConfig(daemonOpts{config: "cta", workers: 1, queue: 8, policy: "drop", paceHW: true, paceRate: 1000}); err == nil ||
		!strings.Contains(err.Error(), "-pace-rate") {
		t.Fatalf("two service intervals: got %v", err)
	}
	if _, err := buildConfig(daemonOpts{config: "cta", workers: 1, queue: 8, policy: "drop", recordDir: "/data/wal", recordRetain: -1}); err == nil ||
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
	cfg, err := buildConfig(daemonOpts{
		config: "adapt", workers: 1, queue: 8, policy: "block", seed: 1,
		recordDir: "/data/wal", recordSegMB: 16, recordRetain: 4,
	})
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
