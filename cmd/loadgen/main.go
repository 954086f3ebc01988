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
// events back-to-back with per-event ids and send timestamps, and the reader
// matches downlink records to sends, reporting the maximum sustained served
// rate plus end-to-end p50/p99 latency as measured by the client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/chaos"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type connResult struct {
	sent     int
	received int
	islands  int
	err      error

	// target indexes the -addr entry this connection drove; connects counts
	// successful dials (the chaos path reconnects, so it can exceed 1).
	target   int
	connects int

	// lats holds one client-measured end-to-end latency (send → record
	// received) per matched event, populated only in saturation mode.
	lats []time.Duration

	// Fault accounting, populated on the chaos path.
	corrupted   int // events with at least one injected frame fault
	partials    int // events cut mid-assembly by a deliberate or real disconnect
	reconnects  int // connections re-established after a cut
	dialRetries int // extra dial attempts absorbed by backoff
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

	cfg, err := pipelineConfig(*configName, *samples)
	if err != nil {
		return err
	}
	templs, wireBytes, err := digitizeTemplates(cfg, *templates, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loadgen: %d events to %s over %d conns, target %s (%s), %d B/event\n",
		*events, strings.Join(targets, ","), *conns, rateName(*rate), arrivalName(*poisson), wireBytes)
	if useChaos {
		fmt.Fprintf(out, "chaos:   corrupt %.3g%%/frame, disconnect %.3g%%/event, fault seed %d\n",
			100**corrupt, 100**disconnect, *faultSeed)
	}

	results := make([]connResult, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	var sendDur, recvDur time.Duration
	var durMu sync.Mutex
	for i := 0; i < *conns; i++ {
		share := *events / *conns
		if i < *events%*conns {
			share++
		}
		wg.Add(1)
		go func(id, share int) {
			defer wg.Done()
			target := targets[id%len(targets)]
			perConn := *rate / float64(*conns)
			// Stagger the connections across the pacing window so their
			// bursts interleave instead of hitting the daemon in lockstep.
			phase := time.Duration(id) * *burst / time.Duration(*conns)
			var res connResult
			var sd, rd time.Duration
			if useChaos {
				res, sd, rd = driveChaosConn(target, templs, share, perConn, *poisson, phase,
					detector.NewRNG(*seed+uint64(id)+1), *timeout, *burst, chaosPlan{
						corrupt:     *corrupt,
						disconnect:  *disconnect,
						seed:        *faultSeed + uint64(id),
						dialRetries: *dialTries,
					})
			} else if *rate <= 0 {
				res, sd, rd = driveSatConn(target, templs, share, *timeout)
			} else {
				res, sd, rd = driveConn(target, templs, share, perConn, *poisson, phase,
					detector.NewRNG(*seed+uint64(id)+1), *timeout, *burst)
			}
			res.target = id % len(targets)
			durMu.Lock()
			if sd > sendDur {
				sendDur = sd
			}
			if rd > recvDur {
				recvDur = rd
			}
			durMu.Unlock()
			results[id] = res
		}(i, share)
	}
	wg.Wait()
	wall := time.Since(start)

	var total connResult
	for i, r := range results {
		total.sent += r.sent
		total.received += r.received
		total.islands += r.islands
		total.corrupted += r.corrupted
		total.partials += r.partials
		total.reconnects += r.reconnects
		total.dialRetries += r.dialRetries
		if r.err != nil && total.err == nil {
			total.err = fmt.Errorf("conn %d: %w", i, r.err)
		}
	}
	var lats []time.Duration
	for _, r := range results {
		lats = append(lats, r.lats...)
	}
	lost := total.sent - total.received
	offered := float64(total.sent) / sendDur.Seconds()
	served := float64(total.received) / recvDur.Seconds()
	if len(targets) > 1 {
		// Per-target accounting: with a list of ingest addresses the run is
		// a fleet measurement, so break connects/retries and traffic out by
		// target before the aggregate lines.
		type targetStat struct{ conns, connects, retries, sent, received int }
		per := make([]targetStat, len(targets))
		for _, r := range results {
			ts := &per[r.target]
			ts.conns++
			ts.connects += r.connects
			ts.retries += r.dialRetries
			ts.sent += r.sent
			ts.received += r.received
		}
		for i, ts := range per {
			fmt.Fprintf(out, "target   %s: conns %d, connects %d (+%d dial retries), sent %d, received %d\n",
				targets[i], ts.conns, ts.connects, ts.retries, ts.sent, ts.received)
		}
	}
	fmt.Fprintf(out, "sent     %d events in %.2fs -> %.0f ev/s offered\n",
		total.sent, sendDur.Seconds(), offered)
	fmt.Fprintf(out, "received %d records (%d islands) in %.2fs -> %.0f ev/s served\n",
		total.received, total.islands, recvDur.Seconds(), served)
	fmt.Fprintf(out, "lost     %d events (%.3f%%), wall %.2fs\n",
		lost, 100*float64(lost)/float64(total.sent), wall.Seconds())
	if useChaos {
		// Under clean-kill faults every lost event has exactly one cause, so
		// this line lets the operator check lost == corrupted + partials.
		fmt.Fprintf(out, "faults   %d corrupted + %d partials = %d explained, %d reconnects (%d dial retries)\n",
			total.corrupted, total.partials, total.corrupted+total.partials,
			total.reconnects, total.dialRetries)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
		fmt.Fprintf(out, "saturation: max sustained %.0f ev/s served, latency p50=%v p99=%v max=%v (%d matched)\n",
			served, q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond),
			lats[len(lats)-1].Round(time.Microsecond), len(lats))
	}
	if total.err != nil {
		return total.err
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

func rateName(r float64) string {
	if r <= 0 {
		return "unpaced"
	}
	return fmt.Sprintf("%.0f ev/s", r)
}

func arrivalName(poisson bool) string {
	if poisson {
		return "Poisson"
	}
	return "paced"
}

func pipelineConfig(name string, samples int) (adapt.Config, error) {
	var cfg adapt.Config
	switch name {
	case "adapt":
		cfg = adapt.DefaultADAPT()
	case "cta":
		cfg = adapt.DefaultCTA()
	default:
		var rows, cols int
		if n, err := fmt.Sscanf(name, "%dx%d", &rows, &cols); n != 2 || err != nil || rows <= 0 || cols <= 0 {
			return cfg, fmt.Errorf("unknown -config %q (want adapt, cta, or RxC like 512x512)", name)
		}
		cfg = adapt.DefaultFrame(rows, cols)
	}
	if samples > 0 {
		cfg.SamplesPerChannel = samples
	}
	return cfg, nil
}

// template is one pre-serialized detector event. stream is the whole event's
// wire image (the zero-copy fast path); frames are its per-packet subslices,
// which the chaos path needs to aim faults at frame boundaries.
type template struct {
	stream []byte
	frames [][]byte
}

// digitizeTemplates pre-serializes n distinct detector events so the send
// loop costs only socket writes. Event ids cycle 0..n-1.
func digitizeTemplates(cfg adapt.Config, n int, seed uint64) ([]template, int, error) {
	rng := detector.NewRNG(seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	templs := make([]template, n)
	wire := 0
	for i := range templs {
		truth := makeTruth(cfg, rng)
		packets, err := adapt.GenerateEvent(truth, cfg.ASICs, uint32(i), uint64(i)*1000, dig, rng)
		if err != nil {
			return nil, 0, err
		}
		var buf []byte
		offsets := make([]int, 0, len(packets)+1)
		for p := range packets {
			offsets = append(offsets, len(buf))
			b, err := packets[p].Marshal()
			if err != nil {
				return nil, 0, err
			}
			buf = append(buf, b...)
		}
		offsets = append(offsets, len(buf))
		frames := make([][]byte, len(packets))
		for p := range frames {
			frames[p] = buf[offsets[p]:offsets[p+1]]
		}
		templs[i] = template{stream: buf, frames: frames}
		wire = len(buf)
	}
	return templs, wire, nil
}

// showerModelMaxPixels is the largest frame that gets the single-shower
// traffic model: one 128×128 camera. It decides what loadgen sends, not how
// the daemon serves it.
const showerModelMaxPixels = 128 * 128

// makeTruth builds one event's true photo-electron image. Camera-scale 2D
// frames get the CTA shower model; frames past showerModelMaxPixels get a
// field of random blobs at ~2% occupancy — one shower in a megapixel frame
// would light a few hundred pixels and measure nothing but dark-channel
// overhead.
func makeTruth(cfg adapt.Config, rng *detector.RNG) []grid.Value {
	channels := cfg.ASICs * adapt.ChannelsPerASIC
	if cfg.Detection.TwoDimension {
		rows, cols := cfg.Detection.TwoD.Rows, cfg.Detection.TwoD.Cols
		var img *grid.Grid
		if rows*cols > showerModelMaxPixels {
			img = detector.RandomIslands(rows, cols, rows*cols/400, 1.5, rng)
		} else {
			cam := detector.CameraConfig{Rows: rows, Cols: cols, NSBMeanPE: 0.1}
			img = cam.Shower(cam.TypicalShower(rng), rng)
		}
		flat := make([]grid.Value, channels)
		copy(flat, img.Flat())
		return flat
	}
	tracker := detector.DefaultTracker()
	tracker.Channels = channels
	tracker.Threshold = 0
	return tracker.Event(rng).Values
}

// driveConn sends `share` events down one connection at perConn events/s
// (shifted by phase) and reads downlink records until the server closes the
// stream.
func driveConn(addr string, templs []template, share int, perConn float64,
	poisson bool, phase time.Duration, rng *detector.RNG,
	timeout, burst time.Duration) (connResult, time.Duration, time.Duration) {
	var res connResult
	start := time.Now()
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		res.err = err
		return res, time.Since(start), time.Since(start)
	}
	defer nc.Close()
	res.connects = 1

	var sendDur time.Duration
	writeErr := make(chan error, 1)
	go func() {
		defer func() {
			sendDur = time.Since(start)
			// Half-close so the server sees a clean end of ingress and
			// drains our in-flight events before closing the response path.
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}()
		// Events due at the same wakeup go out in one vectored write, so the
		// syscall rate tracks the pacing granularity, not the event rate.
		batch := make(net.Buffers, 0, 64)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			n := len(batch)
			nc.SetWriteDeadline(time.Now().Add(timeout))
			tmp := batch
			if _, err := tmp.WriteTo(nc); err != nil {
				return err
			}
			res.sent += n
			batch = batch[:0]
			return nil
		}
		ahead := phase // scheduled send time relative to start
		for i := 0; i < share; i++ {
			if perConn > 0 {
				if poisson {
					ahead += time.Duration(rng.Exp(1/perConn) * float64(time.Second))
				} else {
					ahead = phase + time.Duration(float64(i)/perConn*float64(time.Second))
				}
				if sleep := ahead - time.Since(start); sleep > burst {
					if err := flush(); err != nil {
						writeErr <- fmt.Errorf("write event %d: %w", i, err)
						return
					}
					time.Sleep(sleep)
				}
			}
			batch = append(batch, templs[i%len(templs)].stream)
			if len(batch) == cap(batch) {
				if err := flush(); err != nil {
					writeErr <- fmt.Errorf("write event %d: %w", i, err)
					return
				}
			}
		}
		writeErr <- flush()
	}()

	res.received, res.islands, res.err = readRecords(nc, timeout)
	recvDur := time.Since(start)
	if werr := <-writeErr; werr != nil && res.err == nil {
		res.err = werr
	}
	return res, sendDur, recvDur
}

// satWriteBatch is how many events the saturation drive gathers into one
// vectored write. Each slot needs its own template copy (event ids are
// patched in place), so the batch size trades a little client memory for one
// writev per batch instead of one write syscall per event — on loopback the
// sender and the daemon share the machine, so client syscalls eat directly
// into the measured ceiling.
const satWriteBatch = 8

// driveSatConn is the -rate 0 saturation drive: it writes events back-to-back
// as fast as the socket accepts them, satWriteBatch events per vectored
// write with each event id patched into a private per-slot template copy
// just before the send, and timestamps each send so the reader can match
// downlink records (which carry the event id) back to their sends for
// client-side end-to-end latency. The pair (served rate, latency
// percentiles) this produces is the max-sustained-rate figure of merit:
// offered load exceeds capacity by construction, so the served rate is the
// daemon's ceiling under the configured policy.
func driveSatConn(addr string, templs []template, share int,
	timeout time.Duration) (connResult, time.Duration, time.Duration) {
	var res connResult
	start := time.Now()
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		res.err = err
		return res, time.Since(start), time.Since(start)
	}
	defer nc.Close()
	res.connects = 1

	// Per-slot private template copies: every slot of a write batch carries a
	// different event id, so each needs its own bytes (the shared templates
	// also serve every connection goroutine). Frame boundaries are
	// reconstructed so each frame's event id and checksum can be rewritten in
	// place. The patchers carry each frame's checksum base — it excludes the
	// event id, so one patcher per template frame serves every slot, and each
	// rewrite costs a handful of adds instead of refolding the whole frame
	// (~17 KB/event at CTA geometry, paid by the client on the shared host).
	streams := make([][][]byte, satWriteBatch)  // [slot][template]
	frames := make([][][][]byte, satWriteBatch) // [slot][template][frame]
	patchers := make([][]adapt.FramePatcher, len(templs))
	for i, tp := range templs {
		patchers[i] = make([]adapt.FramePatcher, len(tp.frames))
		for j, f := range tp.frames {
			fp, err := adapt.NewFramePatcher(f)
			if err != nil {
				res.err = err
				return res, time.Since(start), time.Since(start)
			}
			patchers[i][j] = fp
		}
	}
	for s := 0; s < satWriteBatch; s++ {
		streams[s] = make([][]byte, len(templs))
		frames[s] = make([][][]byte, len(templs))
		for i, tp := range templs {
			streams[s][i] = append([]byte(nil), tp.stream...)
			off := 0
			frames[s][i] = make([][]byte, len(tp.frames))
			for j, f := range tp.frames {
				frames[s][i][j] = streams[s][i][off : off+len(f)]
				off += len(f)
			}
		}
	}

	// sendNs[i] is event i's send time relative to start; the reader indexes
	// it by the record's event id. Written before the socket write, read only
	// after the matching record arrives, so no send can race its own read.
	sendNs := make([]int64, share)

	var sendDur time.Duration
	writeErr := make(chan error, 1)
	go func() {
		defer func() {
			sendDur = time.Since(start)
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}()
		bufs := make(net.Buffers, 0, satWriteBatch)
		for i := 0; i < share; {
			n := satWriteBatch
			if share-i < n {
				n = share - i
			}
			bufs = bufs[:0]
			for s := 0; s < n; s++ {
				t := (i + s) % len(templs)
				for j, f := range frames[s][t] {
					patchers[t][j].SetEventID(f, uint32(i+s))
				}
				sendNs[i+s] = int64(time.Since(start))
				bufs = append(bufs, streams[s][t])
			}
			nc.SetWriteDeadline(time.Now().Add(timeout))
			if _, err := bufs.WriteTo(nc); err != nil {
				writeErr <- fmt.Errorf("write events %d..%d: %w", i, i+n-1, err)
				return
			}
			res.sent += n
			i += n
		}
		writeErr <- nil
	}()

	res.received, res.islands, res.lats, res.err = readRecordsLat(nc, timeout, start, sendNs)
	recvDur := time.Since(start)
	if werr := <-writeErr; werr != nil && res.err == nil {
		res.err = werr
	}
	return res, sendDur, recvDur
}

// readRecordsLat consumes downlink records until EOF like readRecords, and
// additionally matches each record's event id against the send-time table to
// accumulate client-observed end-to-end latencies.
func readRecordsLat(nc net.Conn, timeout time.Duration, start time.Time,
	sendNs []int64) (records, islands int, lats []time.Duration, err error) {
	// The scanner's DeadlineRearmer re-arms every adapt.DeadlineRearmEvery
	// records, not every record: in saturation mode records arrive tens of
	// thousands of times per second and the deadline update is a measurable
	// share of client CPU on the shared loopback host. A stalled server
	// still trips the deadline armed at the head of the current window.
	sc := adapt.NewRecordScanner(nc, adapt.NewDeadlineRearmer(nc, timeout))
	lats = make([]time.Duration, 0, len(sendNs))
	for {
		rec, err := sc.Next()
		if err != nil {
			if err == io.EOF {
				return sc.Records, sc.Islands, lats, nil
			}
			return sc.Records, sc.Islands, lats, fmt.Errorf("record stream: %w", err)
		}
		if id := adapt.RecordEventID(rec); int(id) < len(sendNs) {
			lats = append(lats, time.Since(start)-time.Duration(sendNs[id]))
		}
	}
}

// chaosPlan configures the fault-injecting drive path of one connection.
type chaosPlan struct {
	corrupt     float64 // per-frame fault probability (half flips, half truncations)
	disconnect  float64 // per-event probability of a deliberate mid-event cut
	seed        uint64  // frame-injector seed (distinct per connection)
	dialRetries int     // dial attempts per (re)connect
}

// dialRetry dials with exponential backoff plus jitter, as a field client
// facing a daemon that may be restarting would. It returns the connection and
// how many extra attempts the backoff absorbed.
func dialRetry(addr string, timeout time.Duration, rng *detector.RNG, attempts int) (net.Conn, int, error) {
	backoff := 10 * time.Millisecond
	for try := 0; ; try++ {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return nc, try, nil
		}
		if try+1 >= attempts {
			return nil, try, fmt.Errorf("dial after %d attempts: %w", try+1, err)
		}
		// Full jitter in [backoff/2, 3*backoff/2): staggered retries avoid a
		// reconnect stampede when every connection lost the daemon at once.
		time.Sleep(backoff/2 + time.Duration(rng.Float64()*float64(backoff)))
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// driveChaosConn is driveConn's fault-injecting sibling: it paces the same
// workload but writes frame by frame through a chaos.FrameInjector, cuts the
// connection mid-event with the configured probability, and reconnects with
// backoff. Each connection segment gets its own record-reader goroutine so
// responses to in-flight events are still counted after a cut.
func driveChaosConn(addr string, templs []template, share int, perConn float64,
	poisson bool, phase time.Duration, rng *detector.RNG,
	timeout, burst time.Duration, plan chaosPlan) (connResult, time.Duration, time.Duration) {
	var res connResult
	start := time.Now()

	// Private frame copies: event ids are patched in place per event, and the
	// templates are shared across connection goroutines.
	frames := make([][][]byte, len(templs))
	for i, tp := range templs {
		cp := make([][]byte, len(tp.frames))
		for j, f := range tp.frames {
			cp[j] = append([]byte(nil), f...)
		}
		frames[i] = cp
	}
	inj := chaos.NewFrameInjector(chaos.FrameConfig{
		Seed:     plan.seed,
		BitFlip:  plan.corrupt / 2,
		Truncate: plan.corrupt / 2,
	})

	// One reader goroutine per connection segment; all are joined at the end
	// so records that arrive after a cut still count.
	type segResult struct {
		records, islands int
		err              error
	}
	var segs []chan segResult
	connect := func() (net.Conn, error) {
		nc, retries, err := dialRetry(addr, timeout, rng, plan.dialRetries)
		res.dialRetries += retries
		if err != nil {
			return nil, err
		}
		res.connects++
		done := make(chan segResult, 1)
		segs = append(segs, done)
		go func() {
			r, n, err := readRecords(nc, timeout)
			nc.Close()
			done <- segResult{r, n, err}
		}()
		return nc, nil
	}
	finish := func(sendDur time.Duration) (connResult, time.Duration, time.Duration) {
		for _, done := range segs {
			sr := <-done
			res.received += sr.records
			res.islands += sr.islands
			if sr.err != nil && res.err == nil {
				res.err = sr.err
			}
		}
		return res, sendDur, time.Since(start)
	}
	halfClose := func(nc net.Conn) {
		// A clean FIN lets buffered packets arrive before the server sees EOF.
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			nc.Close()
		}
	}

	nc, err := connect()
	if err != nil {
		res.err = err
		return finish(time.Since(start))
	}

	ahead := phase
	for i := 0; i < share; i++ {
		if perConn > 0 {
			if poisson {
				ahead += time.Duration(rng.Exp(1/perConn) * float64(time.Second))
			} else {
				ahead = phase + time.Duration(float64(i)/perConn*float64(time.Second))
			}
			if sleep := ahead - time.Since(start); sleep > burst {
				time.Sleep(sleep)
			}
		}
		ev := frames[i%len(frames)]
		for _, f := range ev {
			if err := adapt.PatchFrameEventID(f, uint32(i)); err != nil {
				res.err = err
				return finish(time.Since(start))
			}
		}
		res.sent++
		nc.SetWriteDeadline(time.Now().Add(timeout))

		if plan.disconnect > 0 && rng.Float64() < plan.disconnect {
			// Deliberate mid-event cut: at least one full frame, never all.
			k := 1
			if len(ev) > 1 {
				k += rng.Intn(len(ev) - 1)
			}
			for j := 0; j < k; j++ {
				if _, err := nc.Write(ev[j]); err != nil {
					break // the cut was coming anyway
				}
			}
			halfClose(nc)
			res.partials++
			res.reconnects++
			if nc, err = connect(); err != nil {
				res.err = err
				return finish(time.Since(start))
			}
			continue
		}

		hit := false
		var werr error
	frameLoop:
		for _, f := range ev {
			chunks, fault := inj.Mutate(f)
			if fault != chaos.FaultNone {
				hit = true
			}
			for _, c := range chunks {
				if _, err := nc.Write(c); err != nil {
					werr = err
					break frameLoop
				}
			}
		}
		if hit {
			res.corrupted++
		}
		if werr != nil {
			// Unplanned loss (e.g. the server cut us): the event is partial
			// unless a fault already killed it; reconnect and press on.
			if !hit {
				res.partials++
			}
			res.reconnects++
			nc.Close()
			if nc, err = connect(); err != nil {
				res.err = err
				return finish(time.Since(start))
			}
		}
	}
	sendDur := time.Since(start)
	halfClose(nc)
	return finish(sendDur)
}

// readRecords consumes downlink records until EOF, returning counts. Framing
// and deadline amortization live in adapt.RecordScanner — the same reader the
// gateway uses for its backend relays.
func readRecords(nc net.Conn, timeout time.Duration) (records, islands int, err error) {
	sc := adapt.NewRecordScanner(nc, adapt.NewDeadlineRearmer(nc, timeout))
	for {
		if _, err := sc.Next(); err != nil {
			if err == io.EOF {
				return sc.Records, sc.Islands, nil
			}
			return sc.Records, sc.Islands, fmt.Errorf("record stream: %w", err)
		}
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
