package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/health"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// Config parameterizes one ingest server.
type Config struct {
	// Pipeline is the per-worker pipeline build (array geometry, samples,
	// detection mode). Every worker instantiates its own copy.
	Pipeline adapt.Config
	// Workers is the pipeline pool size. Default 1.
	Workers int
	// QueueDepth is the per-worker derandomizer queue capacity in events,
	// mirroring adapt.TriggerConfig.FIFODepth. Default 64.
	QueueDepth int
	// Policy selects drop (derandomizer semantics) or block (backpressure)
	// on a full queue.
	Policy OverflowPolicy
	// PaceRate, when positive, throttles each worker to this many events per
	// second — a fixed-capacity backend model, used to study scale-out with
	// capacity-bound backends and, at the modeled FPGA rate
	// (adapt.Pipeline.EventsPerSecond, hepccld -pace-hw), to compare measured
	// loss-vs-depth with experiments deadtime (E14). A paced worker drains
	// one event per service slot.
	PaceRate float64
	// Pedestals holds the measured per-channel pedestal integrals
	// (adapt.MeasurePedestals) installed in each worker pipeline at startup.
	// Nil keeps nominal pedestals.
	Pedestals []int64
	// StatsAddr, when non-empty, serves GET /stats (JSON snapshot) and
	// GET /healthz on this address.
	StatsAddr string
	// EnablePprof additionally registers net/http/pprof handlers under
	// /debug/pprof/ on the stats address. Off by default: the profiling
	// surface is a debugging aid, not part of the operational API.
	EnablePprof bool
	// WriteTimeout bounds each response write, and so how long a client
	// that stops reading can stall its lane. Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout closes a connection that delivers no data between events
	// for this long. Zero disables (the seed behavior).
	IdleTimeout time.Duration
	// AssemblyTimeout bounds the wall-clock time one event may spend
	// assembling once its first byte arrives, so a client that dies
	// mid-event cannot hold packets (and a reader goroutine) forever.
	// Zero disables.
	AssemblyTimeout time.Duration
	// BreakerBadPackets arms the resync-storm circuit breaker: a connection
	// that produces more than this many bad packets within BreakerWindow is
	// closed, on the theory that its framing is unrecoverably wedged or the
	// peer is garbage. Zero disables.
	BreakerBadPackets int
	// BreakerWindow is the breaker's sliding window. Default 1s when
	// BreakerBadPackets is set.
	BreakerWindow time.Duration
	// RecordDir, when non-empty, appends the raw wire bytes of every decoded
	// event to a write-ahead log in this directory (see internal/wal) before
	// it is enqueued, so a crash can never have served an event the log
	// missed. Skimmed (condemned-before-read) events are not recorded; an
	// event that decodes but then loses the enqueue race under drop policy is
	// in the log yet counted dropped, so the log bounds the accepted load
	// from above by at most those rare rejections. Opening the log recovers
	// from a previous crash by truncating at the last valid record.
	RecordDir string
	// RecordSegmentBytes sets the WAL segment size. Zero means the wal
	// package default (64 MiB).
	RecordSegmentBytes int64
	// RecordRetain, when positive, keeps only the newest N segment files,
	// the active one included.
	RecordRetain int
	// LogInterval emits a periodic one-line stats summary. Zero disables.
	LogInterval time.Duration
	// Logger receives the periodic line and lifecycle messages. Nil means
	// log.Default() when LogInterval is set, silent otherwise.
	Logger *log.Logger
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.BreakerBadPackets > 0 && cfg.BreakerWindow <= 0 {
		cfg.BreakerWindow = time.Second
	}
	if cfg.Logger == nil && cfg.LogInterval > 0 {
		cfg.Logger = log.Default()
	}
	return cfg
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Server is a concurrent ALPHA-packet event-ingest service.
type Server struct {
	cfg     Config
	stats   Stats
	workers []*worker
	// ingressDone is closed (during Shutdown, after every reader has exited)
	// to tell workers the ingest rings are frozen: drain and retire.
	ingressDone chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	connID uint64

	draining  chan struct{}
	drainOnce sync.Once

	// acceptWG tracks the accept loop. Shutdown waits it out (the closed
	// listener makes the loop exit) before waiting on readersWG, so no
	// late-accepted connection can Add a reader concurrently with the Wait.
	acceptWG  sync.WaitGroup
	readersWG sync.WaitGroup
	workersWG sync.WaitGroup
	connsWG   sync.WaitGroup

	statsSrv *http.Server
	statsLn  net.Listener

	// wal, when non-nil, receives the raw bytes of every admitted event.
	wal *wal.Writer

	// sup is the calibrated zero-suppression table every connection reader
	// shares read-only. All worker pipelines are built and calibrated alike,
	// so the first one's table is every worker's.
	sup *adapt.Suppressor

	health healthWindow
	rates  rateWindow

	// Static gauge values surfaced on /stats: the per-worker pipelines'
	// resolved labeling backend and the served frame size in pixels
	// (channels for 1D configs).
	serveBackend string
	pixels       int
}

// New validates the configuration, builds and calibrates the worker
// pipelines, and returns a server ready to Serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		conns:       make(map[*conn]struct{}),
		draining:    make(chan struct{}),
		ingressDone: make(chan struct{}),
	}
	s.stats.start = time.Now()
	// Seed the rate-gauge baseline at startup so the very first /stats scrape
	// reports the since-start average instead of an empty window.
	s.rates.at = s.stats.start
	// Build every pipeline before starting any worker so a late construction
	// error cannot strand already-running goroutines.
	pipes := make([]*adapt.Pipeline, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		p, err := adapt.New(cfg.Pipeline)
		if err != nil {
			return nil, fmt.Errorf("server: worker %d: %w", i, err)
		}
		if cfg.Pedestals != nil {
			if err := p.SetPedestals(cfg.Pedestals); err != nil {
				return nil, fmt.Errorf("server: worker %d: %w", i, err)
			}
		}
		pipes[i] = p
	}
	// Gauge surface for /stats: every worker pipeline is built from the same
	// config, so the first one's resolved backend describes them all.
	s.serveBackend = pipes[0].ServeEngine()
	s.sup = pipes[0].Suppressor()
	if det := cfg.Pipeline.Detection; det.TwoDimension {
		s.pixels = det.TwoD.Rows * det.TwoD.Cols
	} else {
		s.pixels = cfg.Pipeline.ASICs * adapt.ChannelsPerASIC
	}
	if cfg.RecordDir != "" {
		w, info, err := wal.Open(wal.Options{
			Dir:          cfg.RecordDir,
			SegmentBytes: cfg.RecordSegmentBytes,
			Retain:       cfg.RecordRetain,
			Logger:       cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("server: record log: %w", err)
		}
		s.wal = w
		if l := cfg.Logger; l != nil {
			l.Printf("hepccld: recording to %s (%d segments recovered, %d tail records, %d torn bytes truncated)",
				cfg.RecordDir, info.Segments, info.TailRecords, info.TornBytes)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker()
		s.workers = append(s.workers, w)
		s.workersWG.Add(1)
		go s.run(w, pipes[i])
	}
	return s, nil
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown, returning ErrServerClosed
// on a clean shutdown. The stats endpoint and periodic log line run for the
// lifetime of the serve loop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	if s.isDraining() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	// Registered under the same lock Shutdown closes the listener under:
	// either the loop exists before Shutdown runs (it closes the listener and
	// waits the loop out), or draining was observed above and it never starts.
	s.acceptWG.Add(1)
	s.mu.Unlock()
	s.startStats()
	stopLog := s.startPeriodicLog()
	defer stopLog()
	if l := s.cfg.Logger; l != nil {
		l.Printf("hepccld: serving on %s (%d workers, queue depth %d, policy %s, backend %s, scan kernel %s)",
			ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth, s.cfg.Policy, s.serveBackend, adapt.ScanKernel())
	}
	return s.acceptLoop(ln)
}

// acceptLoop accepts connections on ln until Shutdown or a fatal accept
// error.
func (s *Server) acceptLoop(ln net.Listener) error {
	defer s.acceptWG.Done()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			// Transient accept failures (EMFILE, ENFILE, ...) surface as
			// net.Error timeouts; back off exponentially instead of tearing
			// the whole server down over a descriptor spike.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				if l := s.cfg.Logger; l != nil {
					l.Printf("hepccld: accept: %v; retrying in %v", err, backoff)
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.addConn(nc)
	}
}

// Addr returns the listener address, once serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) addConn(nc net.Conn) {
	c := &conn{
		s:      s,
		nc:     nc,
		remote: nc.RemoteAddr().String(),
		in:     newRing[*event](s.cfg.QueueDepth),
	}
	s.mu.Lock()
	s.connID++
	c.id = s.connID
	// Pin the connection to one worker lane, round-robin by id, for its
	// lifetime: that is what makes its ring single-producer/single-consumer
	// and its worker the only writer of its responses.
	c.w = s.workers[c.id%uint64(len(s.workers))]
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	c.w.addConn(c)
	s.stats.ConnsTotal.Add(1)
	s.stats.ConnsActive.Add(1)
	s.readersWG.Add(1)
	s.connsWG.Add(1)
	if s.isDraining() {
		// Shutdown may already have swept the conn table; make sure this
		// late arrival's reader unblocks immediately too.
		nc.SetReadDeadline(time.Now())
	}
	go c.readLoop()
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stats.ConnsActive.Add(-1)
}

// Shutdown gracefully drains the server: stop accepting, stop reading,
// process every queued event, flush every response, then close. A second
// call is a no-op. If ctx expires first, remaining connections are closed
// and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		close(s.draining)
	})
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock readers parked in a socket read; their next read error is
	// treated as end of ingress because draining is closed.
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		// The listener is closed, so the accept loop is on its way out;
		// once it is gone no new reader can appear.
		s.acceptWG.Wait()
		s.readersWG.Wait()
		// All readers have exited: the ingest rings are frozen. Tell the
		// workers to serve the remainder and retire.
		close(s.ingressDone)
		s.workersWG.Wait()
		s.connsWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		err = ctx.Err()
	}
	if s.statsSrv != nil {
		s.statsSrv.Close()
	}
	if s.wal != nil {
		// On the clean path every reader has exited; on the ctx path a racing
		// Append serializes against Close on the writer's mutex and then
		// sticky-fails, which is fine for a server being torn down.
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// startStats serves /stats and /healthz if configured.
func (s *Server) startStats() {
	if s.cfg.StatsAddr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.StatsSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := s.HealthSnapshot()
		if r.URL.Query().Get("verbose") != "" {
			w.Header().Set("Content-Type", "application/json")
			if snap.State == health.Overloaded {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
			return
		}
		if snap.State == health.Overloaded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, snap.State)
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", s.cfg.StatsAddr)
	if err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("hepccld: stats endpoint: %v", err)
		}
		return
	}
	s.mu.Lock()
	s.statsLn = ln
	s.mu.Unlock()
	s.statsSrv = &http.Server{Handler: mux}
	go func() {
		if err := s.statsSrv.Serve(ln); err != nil &&
			!errors.Is(err, http.ErrServerClosed) && s.cfg.Logger != nil {
			s.cfg.Logger.Printf("hepccld: stats endpoint: %v", err)
		}
	}()
}

// StatsAddr returns the stats endpoint's listen address, or nil when the
// endpoint is disabled or not yet serving.
func (s *Server) StatsAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.statsLn == nil {
		return nil
	}
	return s.statsLn.Addr()
}

// startPeriodicLog emits the one-line summary every LogInterval.
func (s *Server) startPeriodicLog() (stop func()) {
	if s.cfg.LogInterval <= 0 || s.cfg.Logger == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	go func() {
		tick := time.NewTicker(s.cfg.LogInterval)
		defer tick.Stop()
		var lastOut uint64
		last := time.Now()
		for {
			select {
			case <-stopCh:
				return
			case now := <-tick.C:
				snap := s.StatsSnapshot()
				rate := float64(snap.EventsOut-lastOut) / now.Sub(last).Seconds()
				s.cfg.Logger.Printf(
					"hepccld: in=%d out=%d (%.0f ev/s) dropped=%d bad_pkts=%d skipped=%dB conns=%d hwm=%d p50=%dµs p99=%dµs",
					snap.EventsIn, snap.EventsOut, rate, snap.Dropped,
					snap.BadPackets, snap.SkippedBytes, snap.ConnsActive,
					snap.QueueHWM, snap.Latency.P50Us, snap.Latency.P99Us)
				lastOut = snap.EventsOut
				last = now
			}
		}
	}()
	return func() { close(stopCh) }
}
