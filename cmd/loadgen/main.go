// Command loadgen drives a hepccld daemon with a synthetic instrument
// workload over real sockets: it digitizes internal/detector events into
// ALPHA packet streams, replays them at a target event rate over N parallel
// connections, and reports achieved throughput and loss — the end-to-end
// check of the §5.5 "15k events/s" claim through the full serving stack.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:9310 -config cta -events 60000 -rate 15000 -conns 4
//	loadgen -poisson -rate 15000 -events 60000     # E14-style Poisson arrivals
//	loadgen -rate 0 -events 60000 -conns 4         # saturation sweep
//
// With -poisson the inter-event gaps are exponential, reproducing the
// trigger process of `experiments deadtime` (E14) so the daemon's measured
// loss fraction vs -queue depth can be compared against that simulation.
//
// With -rate 0 the generator runs in saturation mode: each connection writes
// events back-to-back and the served rate is the daemon's maximum sustained
// rate. Every mode sends through internal/uplink with a per-connection event
// id patched into each event, so the reader matches downlink records to
// their sends and every run reports client-measured p50/p99 latency.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/chaos"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/uplink"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", "127.0.0.1:9310", "ingest address, or a comma-separated list; connections round-robin across targets")
		configName = fs.String("config", "cta", "pipeline configuration: adapt (1D), cta (2D 43x43), or RxC (2D frame geometry, e.g. 512x512)")
		samples    = fs.Int("samples", 4, "waveform samples per channel on the wire (0 keeps the config default)")
		events     = fs.Int("events", 60000, "total events to send across all connections")
		rate       = fs.Float64("rate", 15000, "aggregate target event rate in events/s (0 = unpaced)")
		conns      = fs.Int("conns", 4, "parallel connections")
		poisson    = fs.Bool("poisson", false, "exponential inter-event gaps (Poisson arrivals, as in E14)")
		templates  = fs.Int("templates", 32, "distinct pre-digitized events to cycle through")
		seed       = fs.Uint64("seed", 1860, "workload seed")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-read socket timeout")
		burst      = fs.Duration("burst", 2*time.Millisecond, "pacing granularity: events due within this window are sent as one burst")
		minRate    = fs.Float64("min-rate", 0, "fail unless the served rate reaches this many events/s")
		statsURL   = fs.String("stats-url", "", "hepccld stats endpoint to fetch and print after the run")

		corrupt = fs.Float64("corrupt", 0,
			"per-frame fault probability, split evenly between bit flips and truncations")
		disconnect = fs.Float64("disconnect", 0,
			"per-event probability of cutting the connection mid-event and reconnecting")
		faultSeed = fs.Uint64("fault-seed", 0, "fault-injection seed (0 derives from -seed)")
		dialTries = fs.Int("dial-retries", 5,
			"connection attempts per (re)connect, with exponential backoff and jitter")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *events < 1 || *conns < 1 || *conns > *events {
		return fmt.Errorf("need events >= conns >= 1 (got %d, %d)", *events, *conns)
	}
	if *corrupt < 0 || *corrupt >= 1 || *disconnect < 0 || *disconnect >= 1 {
		return fmt.Errorf("-corrupt and -disconnect must be in [0, 1): got %g, %g", *corrupt, *disconnect)
	}
	if *dialTries < 1 {
		return fmt.Errorf("-dial-retries must be >= 1, got %d", *dialTries)
	}
	if *templates < 1 {
		return fmt.Errorf("-templates must be >= 1, got %d", *templates)
	}
	if *faultSeed == 0 {
		*faultSeed = *seed + 0xC4A05
	}
	useChaos := *corrupt > 0 || *disconnect > 0

	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			targets = append(targets, a)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("-addr names no targets")
	}

	cfg, err := adapt.NamedConfig(*configName, *samples)
	if err != nil {
		return err
	}
	templs, wireBytes, err := digitizeTemplates(cfg, *templates, *seed)
	if err != nil {
		return err
	}
	frameLen := wireBytes / cfg.ASICs
	fmt.Fprintf(out, "loadgen: %d events to %s over %d conns, target %s, %d B/event\n",
		*events, strings.Join(targets, ","), *conns, targetName(*rate, *poisson), wireBytes)
	if useChaos {
		fmt.Fprintf(out, "chaos:   corrupt %.3g%%/frame, disconnect %.3g%%/event, fault seed %d\n",
			100**corrupt, 100**disconnect, *faultSeed)
	}

	// Each connection patches event ids into its own copy of the template
	// streams; the first takes the digitized originals, so the copies are all
	// made before any connection starts. A copy per template, not per write
	// slot, bounds client memory at conns × templates events, and a write
	// batch holds each template at most once.
	streams := make([][][]byte, *conns)
	for id := range streams {
		streams[id] = make([][]byte, len(templs))
		for t, tp := range templs {
			streams[id][t] = tp.stream
			if id > 0 {
				streams[id][t] = bytes.Clone(tp.stream)
			}
		}
	}
	results := make([]uplink.Result, *conns)
	errs := make([]error, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < *conns; id++ {
		share := *events / *conns
		if id < *events%*conns {
			share++
		}
		src := &connSource{
			templs: templs, streams: streams[id], frameLen: frameLen, share: share,
			perConn: *rate / float64(*conns), poisson: *poisson,
			// Stagger the connections across the pacing window so their
			// bursts interleave instead of hitting the daemon in lockstep.
			phase:      time.Duration(id) * *burst / time.Duration(*conns),
			disconnect: *disconnect,
			rng:        detector.NewRNG(*seed + uint64(id) + 1),
		}
		src.due = src.phase
		ucfg := uplink.Config{
			Addr:         targets[id%len(targets)],
			Timeout:      *timeout,
			Burst:        *burst,
			Batch:        min(uplink.DefaultBatch, len(templs)),
			DialAttempts: *dialTries,
			Seed:         *seed + uint64(id) + 1,
			Reconnect:    useChaos,
			Events:       share,
		}
		if *corrupt > 0 {
			ucfg.Fault = frameFaults(chaos.NewFrameInjector(chaos.FrameConfig{
				Seed:     *faultSeed + uint64(id),
				BitFlip:  *corrupt / 2,
				Truncate: *corrupt / 2,
			}), frameLen)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[id], errs[id] = uplink.Run(context.Background(), src, ucfg)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var total uplink.Result
	var runErr error
	for i, r := range results {
		total.Sent += r.Sent
		total.Records += r.Records
		total.Islands += r.Islands
		total.Corrupted += r.Corrupted
		total.Partials += r.Partials
		total.Reconnects += r.Reconnects
		total.Retries += r.Retries
		total.SendTime = max(total.SendTime, r.SendTime)
		total.RecvTime = max(total.RecvTime, r.RecvTime)
		total.Latencies = append(total.Latencies, r.Latencies...)
		if errs[i] != nil && runErr == nil {
			runErr = fmt.Errorf("conn %d: %w", i, errs[i])
		}
	}
	lost := total.Sent - total.Records
	offered := float64(total.Sent) / total.SendTime.Seconds()
	served := float64(total.Records) / total.RecvTime.Seconds()
	if len(targets) > 1 {
		// Per-target accounting: with a list of ingest addresses the run is
		// a fleet measurement, so break connects/retries and traffic out by
		// target before the aggregate lines.
		type targetStat struct{ conns, connects, retries, sent, received int }
		per := make([]targetStat, len(targets))
		for i, r := range results {
			ts := &per[i%len(targets)]
			ts.conns++
			ts.connects += r.Connects
			ts.retries += r.Retries
			ts.sent += r.Sent
			ts.received += r.Records
		}
		for i, ts := range per {
			fmt.Fprintf(out, "target   %s: conns %d, connects %d (+%d dial retries), sent %d, received %d\n",
				targets[i], ts.conns, ts.connects, ts.retries, ts.sent, ts.received)
		}
	}
	fmt.Fprintf(out, "sent     %d events in %.2fs -> %.0f ev/s offered\n",
		total.Sent, total.SendTime.Seconds(), offered)
	fmt.Fprintf(out, "received %d records (%d islands) in %.2fs -> %.0f ev/s served\n",
		total.Records, total.Islands, total.RecvTime.Seconds(), served)
	fmt.Fprintf(out, "lost     %d events", lost)
	if total.Sent > 0 {
		fmt.Fprintf(out, " (%.3f%%)", 100*float64(lost)/float64(total.Sent))
	}
	fmt.Fprintf(out, ", wall %.2fs\n", wall.Seconds())
	if useChaos {
		// Under clean-kill faults every lost event has exactly one cause, so
		// this line lets the operator check lost == corrupted + partials.
		fmt.Fprintf(out, "faults   %d corrupted + %d partials = %d explained, %d reconnects (%d dial retries)\n",
			total.Corrupted, total.Partials, total.Corrupted+total.Partials,
			total.Reconnects, total.Retries)
	}
	if lats := total.Latencies; len(lats) > 0 {
		// Every record answers an event whose id the connection patched in,
		// so each matched record is one client-measured end-to-end latency.
		// Unpaced, offered load exceeds capacity by construction and the
		// served rate is the daemon's ceiling under its policy.
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
		label := "latency "
		if *rate <= 0 {
			label = fmt.Sprintf("saturation: max sustained %.0f ev/s served, latency", served)
		}
		fmt.Fprintf(out, "%s p50=%v p99=%v max=%v (%d matched)\n",
			label, q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond),
			lats[len(lats)-1].Round(time.Microsecond), len(lats))
	}
	if runErr != nil {
		return runErr
	}
	if *statsURL != "" {
		if err := printStats(out, *statsURL); err != nil {
			fmt.Fprintf(out, "stats fetch failed: %v\n", err)
		}
	}
	if *minRate > 0 && served < *minRate {
		return fmt.Errorf("served rate %.0f ev/s below required %.0f ev/s", served, *minRate)
	}
	return nil
}

// targetName names the offered load: the arrival process of a paced run, or
// "unpaced".
func targetName(rate float64, poisson bool) string {
	switch {
	case rate <= 0:
		return "unpaced"
	case poisson:
		return fmt.Sprintf("%.0f ev/s (Poisson)", rate)
	}
	return fmt.Sprintf("%.0f ev/s (paced)", rate)
}

// template is one pre-serialized detector event: its whole wire image and a
// patcher per frame, so a connection can rewrite the event id of its copy in
// a handful of adds per frame.
type template struct {
	stream []byte
	patch  []adapt.FramePatcher
}

// digitizeTemplates pre-serializes n distinct detector events so the send
// loop costs only id patches and socket writes. Template i carries event id
// i; every frame of every template has the same length.
func digitizeTemplates(cfg adapt.Config, n int, seed uint64) ([]template, int, error) {
	rng := detector.NewRNG(seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	templs := make([]template, n)
	wire := 0
	for i := range templs {
		truth := adapt.GenerateTruth(cfg, rng)
		packets, err := adapt.GenerateEvent(truth, cfg.ASICs, uint32(i), uint64(i)*1000, dig, rng)
		if err != nil {
			return nil, 0, err
		}
		var buf []byte
		patch := make([]adapt.FramePatcher, len(packets))
		for p := range packets {
			b, err := packets[p].Marshal()
			if err != nil {
				return nil, 0, err
			}
			if patch[p], err = adapt.NewFramePatcher(b); err != nil {
				return nil, 0, err
			}
			buf = append(buf, b...)
		}
		templs[i] = template{stream: buf, patch: patch}
		wire = len(buf)
	}
	return templs, wire, nil
}

// connSource yields one connection's share of the workload: event i is
// template i mod n with id i patched into the connection's private copy, due
// on the paced or Poisson schedule (at once when unpaced), and cut mid-event
// with probability disconnect.
type connSource struct {
	templs     []template
	streams    [][]byte // the connection's copies of the template streams
	frameLen   int
	i, share   int
	perConn    float64 // events/s; 0 is unpaced
	poisson    bool
	phase, due time.Duration
	disconnect float64
	rng        *detector.RNG
}

func (s *connSource) Next() (uplink.Event, error) {
	if s.i == s.share {
		return uplink.Event{}, io.EOF
	}
	i := s.i
	s.i++
	t := i % len(s.streams)
	wire := s.streams[t]
	for j, fp := range s.templs[t].patch {
		fp.SetEventID(wire[j*s.frameLen:(j+1)*s.frameLen], uint32(i))
	}
	if s.perConn > 0 {
		if s.poisson {
			s.due += time.Duration(s.rng.Exp(1/s.perConn) * float64(time.Second))
		} else {
			s.due = s.phase + time.Duration(float64(i)/s.perConn*float64(time.Second))
		}
	}
	ev := uplink.Event{Wire: wire, Due: s.due}
	if s.disconnect > 0 && s.rng.Float64() < s.disconnect {
		// Deliberate mid-event cut: at least one full frame, never all.
		frames := len(wire) / s.frameLen
		k := 1
		if frames > 1 {
			k += s.rng.Intn(frames - 1)
		}
		ev.Cut = k * s.frameLen
	}
	return ev, nil
}

// frameFaults is the -corrupt transform: every frame goes through inj, and a
// damaged frame's chunks are copied out of the injector's scratch so a write
// batch can hold several.
func frameFaults(inj *chaos.FrameInjector, frameLen int) uplink.Fault {
	return func(dst [][]byte, wire []byte) ([][]byte, bool) {
		hit := false
		for off := 0; off < len(wire); off += frameLen {
			chunks, fault := inj.Mutate(wire[off : off+frameLen])
			if fault == chaos.FaultNone {
				dst = append(dst, chunks...)
				continue
			}
			hit = true
			for _, c := range chunks {
				dst = append(dst, bytes.Clone(c))
			}
		}
		return dst, hit
	}
}

// printStats fetches and pretty-prints the daemon's stats JSON.
func printStats(out io.Writer, url string) error {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(v, "", "  ")
	fmt.Fprintf(out, "server stats: %s\n", b)
	return nil
}
