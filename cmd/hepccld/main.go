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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
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
	var cfg server.Config
	resolve := configFlags(fs, &cfg)
	var (
		listen    = fs.String("listen", "127.0.0.1:9310", "event-ingest listen address")
		statsAddr = fs.String("stats", "", "stats endpoint address (empty disables)")
		pprofOn   = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -stats address")
		replayDir = fs.String("replay", "",
			"replay a recorded WAL through the local server instead of serving external clients, then exit")
		replayRate = fs.Float64("replay-rate", 0,
			"replay pacing multiplier over the recorded timing: 1 = recorded speed, 2 = double, 0 = as fast as possible")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Bind the stats port before calibrating or starting a worker: a daemon
	// without it is invisible to every scraper and health probe.
	var adminLn net.Listener
	if *statsAddr != "" {
		ln, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			return fmt.Errorf("stats endpoint: %w", err)
		}
		defer ln.Close()
		adminLn = ln
	}
	if *replayRate < 0 {
		return fmt.Errorf("-replay-rate = %g must be >= 0", *replayRate)
	}
	if cfg.RecordDir != "" && cfg.RecordDir == *replayDir {
		return fmt.Errorf("-record and -replay point at the same directory %q", cfg.RecordDir)
	}
	if err := resolve(); err != nil {
		return err
	}
	cfg.Logger = log.New(out, "", log.LstdFlags)

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if adminLn != nil {
		admin := &http.Server{Handler: adminHandler(srv.Handler(), *pprofOn)}
		go admin.Serve(adminLn)
		// Every return below drains srv first, so the endpoint answers
		// until the workers are gone.
		defer admin.Close()
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return errors.Join(err, drain(srv))
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		res            server.ReplayResult
		rerr, serveErr error
	)
	if *replayDir != "" {
		// Stream the recorded WAL through the local server, then drain.
		res, rerr = server.Replay(ctx, server.ReplayOptions{
			Addr: ln.Addr().String(), Dir: *replayDir, Rate: *replayRate, Logger: cfg.Logger,
		})
	} else {
		select {
		case serveErr = <-serveDone:
		case <-ctx.Done():
			cfg.Logger.Printf("hepccld: signal received, draining")
		}
	}
	if err := drain(srv); err != nil || serveErr != nil {
		return errors.Join(serveErr, err)
	}
	<-serveDone // ErrServerClosed
	snap := srv.StatsSnapshot()
	if *replayDir != "" {
		fmt.Fprintf(out, "replay: events=%d records=%d served=%d dropped=%d bad=%d incomplete=%d crc=%08x torn=%d\n",
			res.Events, res.DownlinkRecords, snap.EventsOut, snap.Dropped,
			snap.BadEvents, snap.IncompleteEvents, res.DownlinkCRC, res.Torn)
		return rerr
	}
	cfg.Logger.Printf("hepccld: drained: in=%d out=%d dropped=%d", snap.EventsIn, snap.EventsOut, snap.Dropped)
	return nil
}

// drain shuts srv down, waiting at most 30 s for its workers.
func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// adminHandler is the -stats endpoint: the server's /stats and /healthz, and
// with -pprof the net/http/pprof handlers under /debug/pprof/.
func adminHandler(h http.Handler, pprofOn bool) http.Handler {
	if !pprofOn {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// configFlags defines on fs the flags that configure the server. Those that
// map one to one onto a server.Config field bind to it; the returned resolve,
// called after fs.Parse, derives the rest.
func configFlags(fs *flag.FlagSet, cfg *server.Config) (resolve func() error) {
	var (
		configName  = fs.String("config", "cta", "pipeline configuration: adapt (1D), cta (2D 43x43), or RxC (2D frame geometry, e.g. 512x512)")
		samples     = fs.Int("samples", 4, "waveform samples per channel on the wire (0 keeps the config default)")
		policyName  = fs.String("policy", "drop", "queue overflow policy: drop (derandomizer) or block (backpressure)")
		paceHW      = fs.Bool("pace-hw", false, "throttle workers to the modeled FPGA event interval (E14 comparison)")
		calibration = fs.Int("calibration", 20, "pedestal calibration events per worker at startup")
		seed        = fs.Uint64("seed", 1, "calibration workload seed")
		recordSegMB = fs.Int("record-segment-mb", 64, "WAL segment size in MiB")
	)
	fs.IntVar(&cfg.Workers, "workers", 1, "pipeline worker pool size")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "per-worker derandomizer queue depth (events)")
	fs.Float64Var(&cfg.PaceRate, "pace-rate", 0, "throttle each worker to this many events/s (fixed-capacity backend model; 0 disables)")
	fs.DurationVar(&cfg.LogInterval, "log-interval", 5*time.Second, "periodic stats log interval (0 disables)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0,
		"close connections idle between events for this long (0 disables)")
	fs.DurationVar(&cfg.AssemblyTimeout, "assembly-timeout", 0,
		"bound on assembling one event once its first byte arrives (0 disables)")
	fs.IntVar(&cfg.BreakerBadPackets, "breaker-bad-packets", 0,
		"cut a connection after this many bad packets inside -breaker-window (0 disables)")
	fs.DurationVar(&cfg.BreakerWindow, "breaker-window", 0,
		"sliding window for -breaker-bad-packets (0 uses the server default)")
	fs.StringVar(&cfg.RecordDir, "record", "",
		"append every admitted event's raw frames to a write-ahead log in this directory (empty disables)")
	fs.IntVar(&cfg.RecordRetain, "record-retain", 0,
		"keep only the newest N WAL segment files, the active one included (0 keeps everything)")

	return func() error {
		pcfg, err := adapt.NamedConfig(*configName, *samples)
		if err != nil {
			return err
		}
		cfg.Pipeline = pcfg
		switch *policyName {
		case "drop":
			cfg.Policy = server.PolicyDrop
		case "block":
			cfg.Policy = server.PolicyBlock
		default:
			return fmt.Errorf("unknown -policy %q", *policyName)
		}
		if cfg.PaceRate < 0 {
			return fmt.Errorf("-pace-rate = %g must be >= 0", cfg.PaceRate)
		}
		if *paceHW && cfg.PaceRate > 0 {
			return fmt.Errorf("-pace-hw and -pace-rate both set a worker's service interval; give one")
		}
		if *recordSegMB < 0 {
			return fmt.Errorf("-record-segment-mb = %d must be >= 0", *recordSegMB)
		}
		if cfg.RecordRetain < 0 {
			return fmt.Errorf("-record-retain = %d must be >= 0", cfg.RecordRetain)
		}
		cfg.RecordSegmentBytes = int64(*recordSegMB) << 20
		if *paceHW {
			// Serve no faster than the modeled FPGA pipeline: one event per
			// EventIntervalCycles at the design clock, so the daemon's
			// loss-vs-depth behaviour is directly comparable to E14.
			p, err := adapt.New(pcfg)
			if err != nil {
				return err
			}
			cfg.PaceRate = p.EventsPerSecond()
		}
		if *calibration > 0 {
			dig := detector.DefaultDigitizer()
			dig.Samples = pcfg.SamplesPerChannel
			ped, err := adapt.MeasurePedestals(*calibration, pcfg.ASICs, dig, detector.NewRNG(*seed))
			if err != nil {
				return err
			}
			cfg.Pedestals = ped
		}
		return nil
	}
}
