// Command hepccld is the event-ingest daemon: it listens for ALPHA packet
// streams over TCP, assembles events per connection, shards them across a
// pool of calibrated ADAPT pipelines, and streams downlink records back —
// the serving layer that turns the paper's per-event pipeline into a
// network service (§6's system-integration direction).
//
// Usage:
//
//	hepccld -config cta -samples 4 -workers 2 -queue 64        # CTA 43x43
//	hepccld -config adapt -listen :9310 -stats :9311 -pace-hw  # 1D flight
//	hepccld -config 512x512                                    # megapixel frames
//	hepccld -record /data/wal -policy block                    # durable ingest
//	hepccld -replay /data/wal -replay-rate 2 -policy block     # re-serve at 2x
//
// The -stats endpoint serves GET /stats (JSON counters, queue high-water
// mark, latency percentiles, EWMA events_per_sec and ns_per_event gauges) and
// GET /healthz; -pprof additionally exposes net/http/pprof there. With -policy drop the
// per-worker queues behave like the §6 derandomizer FIFO of `experiments
// deadtime` (E14); -pace-hw additionally throttles each worker to the
// modeled FPGA event interval so measured loss-vs-depth curves are directly
// comparable to that simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hepccld:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hepccld", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		listen      = fs.String("listen", "127.0.0.1:9310", "event-ingest listen address")
		statsAddr   = fs.String("stats", "", "stats endpoint address (empty disables)")
		pprofOn     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -stats address")
		configName  = fs.String("config", "cta", "pipeline configuration: adapt (1D), cta (2D 43x43), or RxC (2D frame geometry, e.g. 512x512)")
		samples     = fs.Int("samples", 4, "waveform samples per channel on the wire (0 keeps the config default)")
		workers     = fs.Int("workers", 1, "pipeline worker pool size")
		queue       = fs.Int("queue", 64, "per-worker derandomizer queue depth (events)")
		policyName  = fs.String("policy", "drop", "queue overflow policy: drop (derandomizer) or block (backpressure)")
		paceHW      = fs.Bool("pace-hw", false, "throttle workers to the modeled FPGA event interval (E14 comparison)")
		paceRate    = fs.Float64("pace-rate", 0, "throttle each worker to this many events/s (fixed-capacity backend model; 0 disables)")
		calibration = fs.Int("calibration", 20, "pedestal calibration events per worker at startup")
		seed        = fs.Uint64("seed", 1, "calibration workload seed")
		logEvery    = fs.Duration("log-interval", 5*time.Second, "periodic stats log interval (0 disables)")

		idleTimeout = fs.Duration("idle-timeout", 0,
			"close connections idle between events for this long (0 disables)")
		assemblyTimeout = fs.Duration("assembly-timeout", 0,
			"bound on assembling one event once its first byte arrives (0 disables)")
		breakerBad = fs.Int("breaker-bad-packets", 0,
			"cut a connection after this many bad packets inside -breaker-window (0 disables)")
		breakerWindow = fs.Duration("breaker-window", 0,
			"sliding window for -breaker-bad-packets (0 uses the server default)")

		recordDir = fs.String("record", "",
			"append every admitted event's raw frames to a write-ahead log in this directory (empty disables)")
		recordSegMB  = fs.Int("record-segment-mb", 64, "WAL segment size in MiB")
		recordRetain = fs.Int("record-retain", 0,
			"keep only the newest N WAL segment files, the active one included (0 keeps everything)")
		replayDir = fs.String("replay", "",
			"replay a recorded WAL through the local server instead of serving external clients, then exit")
		replayRate = fs.Float64("replay-rate", 0,
			"replay pacing multiplier over the recorded timing: 1 = recorded speed, 2 = double, 0 = as fast as possible")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := buildConfig(daemonOpts{
		config: *configName, samples: *samples, workers: *workers, queue: *queue,
		policy: *policyName, paceHW: *paceHW, paceRate: *paceRate,
		calibration: *calibration, seed: *seed,
		idleTimeout: *idleTimeout, assemblyTimeout: *assemblyTimeout,
		breakerBadPackets: *breakerBad, breakerWindow: *breakerWindow,
		recordDir: *recordDir, recordSegMB: *recordSegMB, recordRetain: *recordRetain,
		replayDir: *replayDir, replayRate: *replayRate,
	})
	if err != nil {
		return err
	}
	cfg.StatsAddr = *statsAddr
	cfg.EnablePprof = *pprofOn
	cfg.LogInterval = *logEvery
	cfg.Logger = log.New(out, "", log.LstdFlags)

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *replayDir != "" {
		return runReplay(srv, *listen, *replayDir, *replayRate, cfg.Logger, out)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*listen) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		cfg.Logger.Printf("hepccld: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		<-errc // ErrServerClosed
		snap := srv.StatsSnapshot()
		cfg.Logger.Printf("hepccld: drained: in=%d out=%d dropped=%d", snap.EventsIn, snap.EventsOut, snap.Dropped)
		return nil
	}
}

// runReplay serves the configured pipeline on addr, streams the recorded WAL
// through it, prints the accounting summary, and drains.
func runReplay(srv *server.Server, addr, dir string, rate float64, logger *log.Logger, out io.Writer) error {
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ListenAndServe(addr) }()
	// Wait for the listener so the replay dial cannot race the bind.
	for i := 0; srv.Addr() == nil; i++ {
		select {
		case err := <-serveDone:
			return err
		default:
		}
		if i > 1000 {
			return fmt.Errorf("replay: server never bound %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, rerr := server.Replay(ctx, server.ReplayOptions{
		Addr:   srv.Addr().String(),
		Dir:    dir,
		Rate:   rate,
		Logger: logger,
	})
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	<-serveDone
	snap := srv.StatsSnapshot()
	fmt.Fprintf(out, "replay: events=%d records=%d served=%d dropped=%d bad=%d incomplete=%d crc=%08x torn=%d\n",
		res.Events, res.DownlinkRecords, snap.EventsOut, snap.Dropped,
		snap.BadEvents, snap.IncompleteEvents, res.DownlinkCRC, res.Torn)
	return rerr
}

// daemonOpts carries the resolved flag values buildConfig turns into a
// server configuration.
type daemonOpts struct {
	config      string
	samples     int
	workers     int
	queue       int
	policy      string
	paceHW      bool
	paceRate    float64
	calibration int
	seed        uint64

	idleTimeout       time.Duration
	assemblyTimeout   time.Duration
	breakerBadPackets int
	breakerWindow     time.Duration

	recordDir    string
	recordSegMB  int
	recordRetain int
	replayDir    string
	replayRate   float64
}

// parseGeometry parses a "RxC" frame geometry like "512x512" or "768x1024".
func parseGeometry(s string) (rows, cols int, err error) {
	i := strings.IndexByte(s, 'x')
	if i <= 0 || i == len(s)-1 {
		return 0, 0, fmt.Errorf("geometry %q is not RxC", s)
	}
	if rows, err = strconv.Atoi(s[:i]); err != nil {
		return 0, 0, fmt.Errorf("geometry %q: bad rows", s)
	}
	if cols, err = strconv.Atoi(s[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("geometry %q: bad cols", s)
	}
	if rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("geometry %q: dimensions must be positive", s)
	}
	return rows, cols, nil
}

// buildConfig resolves flags into a server configuration.
func buildConfig(o daemonOpts) (server.Config, error) {
	var pcfg adapt.Config
	switch o.config {
	case "adapt":
		pcfg = adapt.DefaultADAPT()
	case "cta":
		pcfg = adapt.DefaultCTA()
	default:
		rows, cols, err := parseGeometry(o.config)
		if err != nil {
			return server.Config{}, fmt.Errorf("unknown -config %q (want adapt, cta, or RxC like 512x512)", o.config)
		}
		pcfg = adapt.DefaultFrame(rows, cols)
	}
	if o.samples > 0 {
		pcfg.SamplesPerChannel = o.samples
	}
	var policy server.OverflowPolicy
	switch o.policy {
	case "drop":
		policy = server.PolicyDrop
	case "block":
		policy = server.PolicyBlock
	default:
		return server.Config{}, fmt.Errorf("unknown -policy %q", o.policy)
	}
	if o.paceRate < 0 {
		return server.Config{}, fmt.Errorf("-pace-rate = %g must be >= 0", o.paceRate)
	}
	if o.paceHW && o.paceRate > 0 {
		return server.Config{}, fmt.Errorf("-pace-hw and -pace-rate both set a worker's service interval; give one")
	}
	if o.replayRate < 0 {
		return server.Config{}, fmt.Errorf("-replay-rate = %g must be >= 0", o.replayRate)
	}
	if o.recordDir != "" && o.recordDir == o.replayDir {
		return server.Config{}, fmt.Errorf("-record and -replay point at the same directory %q", o.recordDir)
	}
	if o.recordSegMB < 0 {
		return server.Config{}, fmt.Errorf("-record-segment-mb = %d must be >= 0", o.recordSegMB)
	}
	if o.recordRetain < 0 {
		return server.Config{}, fmt.Errorf("-record-retain = %d must be >= 0", o.recordRetain)
	}
	cfg := server.Config{
		Pipeline:   pcfg,
		Workers:    o.workers,
		QueueDepth: o.queue,
		Policy:     policy,
		PaceRate:   o.paceRate,

		IdleTimeout:       o.idleTimeout,
		AssemblyTimeout:   o.assemblyTimeout,
		BreakerBadPackets: o.breakerBadPackets,
		BreakerWindow:     o.breakerWindow,

		RecordDir:          o.recordDir,
		RecordSegmentBytes: int64(o.recordSegMB) << 20,
		RecordRetain:       o.recordRetain,
	}
	if o.paceHW {
		// Serve no faster than the modeled FPGA pipeline: one event per
		// EventIntervalCycles at the design clock, so the daemon's
		// loss-vs-depth behaviour is directly comparable to E14.
		p, err := adapt.New(pcfg)
		if err != nil {
			return server.Config{}, err
		}
		cfg.PaceRate = p.EventsPerSecond()
	}
	if o.calibration > 0 {
		dig := detector.DefaultDigitizer()
		dig.Samples = pcfg.SamplesPerChannel
		ped, err := adapt.MeasurePedestals(o.calibration, pcfg.ASICs, dig, detector.NewRNG(o.seed))
		if err != nil {
			return server.Config{}, err
		}
		cfg.Pedestals = ped
	}
	return cfg, nil
}
