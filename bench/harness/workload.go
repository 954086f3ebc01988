package harness

import (
	"bytes"
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Workload is one traffic mix: a daemon configuration, a set of distinct
// events made from the seed, a closed-loop saturation phase and an open-loop
// paced phase, one of which gives the end-to-end metrics of record. Every workload runs `-policy block -workers 1` with four
// samples per channel over a single connection.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json's why).
	Why string
	// Config is hepccld's -config value: adapt, cta, or RxC.
	Config string
	// Queue is hepccld's -queue depth.
	Queue int
	// WAL turns on -record (64 MiB segments, retain 2).
	WAL bool
	// OpenLoop takes the end-to-end metrics of record from the paced phase:
	// the workload is about a fixed offered rate, not the daemon's ceiling.
	OpenLoop bool
	// Distinct is how many different events are generated; the drive cycles
	// through them with unique event ids.
	Distinct int
	// SatEvents is the size of one saturation rep (unpaced, closed by TCP
	// backpressure); it is fixed so reps compare across commits.
	SatEvents int
	// PacedRate (events/s, uniform schedule) and PacedEvents size one
	// open-loop rep; latency is measured only here.
	PacedRate   float64
	PacedEvents int
	// Calibration is hepccld's -calibration count; the oracle calibrates on
	// the identical pedestal events.
	Calibration int
	// salt separates the workloads' random streams; cta-15k-wal shares
	// cta-sat's so the two differ only in the daemon's configuration.
	salt uint64
	// truth draws one event's photo-electron image.
	truth func(cfg adapt.Config, rng *detector.RNG) []grid.Value
}

// samplesPerChannel is the wire window of every workload.
const samplesPerChannel = 4

// calibrationSeed is hepccld's default -seed; the oracle must calibrate on
// the same pedestal draw or its records would differ in the last bit.
const calibrationSeed = 1

// Workloads is the benchmark's fixed set, in the order rounds visit them.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "cta-sat", Config: "cta", Queue: 256, Distinct: 512, salt: 1,
			Why:       "the paper's 43x43 camera on sparse showers: decode-dominated ceiling and 15k ev/s latency, WAL off",
			SatEvents: 20480, PacedRate: 15000, PacedEvents: 7500, Calibration: 20,
			truth: showerTruth,
		},
		{
			Name: "cta-dense-sat", Config: "cta", Queue: 256, Distinct: 512, salt: 2,
			Why:       "same daemon at 30% occupancy: hundreds of islands per event, so labeling and record encode dominate decode",
			SatEvents: 8192, PacedRate: 10000, PacedEvents: 5000, Calibration: 20,
			truth: denseTruth,
		},
		{
			Name: "cta-15k-wal", Config: "cta", Queue: 256, Distinct: 512, salt: 1, WAL: true, OpenLoop: true,
			Why:       "cta-sat's events in an open loop at the paper's 15k ev/s with the write-ahead log on: the production configuration, drains of one or two events",
			SatEvents: 20480, PacedRate: 15000, PacedEvents: 7500, Calibration: 20,
			truth: showerTruth,
		},
		{
			Name: "adapt1d-sat", Config: "adapt", Queue: 256, Distinct: 512, salt: 4,
			Why:       "the 320-channel 1D tracker: 3 KB events, so per-event socket, ring and wake costs are the largest share",
			SatEvents: 131072, PacedRate: 100000, PacedEvents: 50000, Calibration: 20,
			truth: trackerTruth,
		},
		{
			Name: "frame512-sat", Config: "512x512", Queue: 64, Distinct: 16, salt: 5,
			Why:       "512x512 frames at 2% occupancy, 2.4 MB each: the megapixel tiled serving route end to end",
			SatEvents: 96, PacedRate: 100, PacedEvents: 50, Calibration: 4,
			truth: islandsTruth,
		},
	}
}

// WorkloadByName finds one of Workloads.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Smoke shrinks a workload to a harness test: a handful of events, same
// geometry, same daemon flags.
func (w Workload) Smoke() Workload {
	if w.Distinct > 8 {
		w.Distinct = 8
	}
	if w.Config == "512x512" {
		w.Distinct, w.SatEvents, w.PacedEvents = 2, 4, 4
	} else {
		w.SatEvents, w.PacedEvents = 96, 48
		w.PacedRate = 5000
	}
	w.Calibration = 2
	return w
}

// PipelineConfig resolves the workload's -config the way hepccld does.
func (w Workload) PipelineConfig() (adapt.Config, error) {
	var cfg adapt.Config
	switch w.Config {
	case "adapt":
		cfg = adapt.DefaultADAPT()
	case "cta":
		cfg = adapt.DefaultCTA()
	default:
		var rows, cols int
		if n, err := fmt.Sscanf(w.Config, "%dx%d", &rows, &cols); n != 2 || err != nil || rows <= 0 || cols <= 0 {
			return cfg, fmt.Errorf("workload %s: bad config %q", w.Name, w.Config)
		}
		cfg = adapt.DefaultFrame(rows, cols)
	}
	cfg.SamplesPerChannel = samplesPerChannel
	return cfg, nil
}

func padTruth(cfg adapt.Config, img *grid.Grid) []grid.Value {
	flat := make([]grid.Value, cfg.ASICs*adapt.ChannelsPerASIC)
	copy(flat, img.Flat())
	return flat
}

// showerTruth is one typical gamma shower over night-sky background on the
// camera — loadgen's CTA event, a few lit islands in 1,849 pixels.
func showerTruth(cfg adapt.Config, rng *detector.RNG) []grid.Value {
	d := cfg.Detection.TwoD
	cam := detector.CameraConfig{Rows: d.Rows, Cols: d.Cols, NSBMeanPE: 0.1}
	return padTruth(cfg, cam.Shower(cam.TypicalShower(rng), rng))
}

// denseTruth lights 30% of the pixels independently at 5-24 p.e. (bright
// night-sky or flat-field frames): the paper's worst-case merge-table regime.
func denseTruth(cfg adapt.Config, rng *detector.RNG) []grid.Value {
	d := cfg.Detection.TwoD
	img := detector.RandomOccupancy(d.Rows, d.Cols, 0.30, rng)
	for i, v := range img.Flat() {
		if v != 0 {
			img.Flat()[i] = grid.Value(5 + rng.Intn(20))
		}
	}
	return padTruth(cfg, img)
}

// trackerTruth is one ADAPT tracker-layer event (~2 interactions).
func trackerTruth(cfg adapt.Config, rng *detector.RNG) []grid.Value {
	tr := detector.DefaultTracker()
	tr.Channels = cfg.ASICs * adapt.ChannelsPerASIC
	tr.Threshold = 0
	return tr.Event(rng).Values
}

// islandsTruth scatters blobs to ~2% occupancy, the load the tile-parallel
// engine is sized for.
func islandsTruth(cfg adapt.Config, rng *detector.RNG) []grid.Value {
	d := cfg.Detection.TwoD
	return padTruth(cfg, detector.RandomIslands(d.Rows, d.Cols, d.Rows*d.Cols/400, 1.5, rng))
}

// Event is one generated event on the wire.
type Event struct {
	// Stream is the whole event's wire image, a subslice of Inputs.Wire.
	Stream []byte
	// frames are Stream's per-packet subslices and patchers their
	// incremental-checksum id rewriters, so the drive can stamp a unique
	// event id without refolding 17 KB of checksum per event.
	frames   [][]byte
	patchers []adapt.FramePatcher
}

// SetID rewrites the event id (and checksum) of every frame in place.
func (e *Event) SetID(id uint32) {
	for i, f := range e.frames {
		e.patchers[i].SetEventID(f, id)
	}
}

// Inputs is everything made from the seed for one workload: the truth
// images, their wire bytes, and the record the per-pixel oracle computes for
// each. Nothing else reaches the daemon.
type Inputs struct {
	W      Workload
	Cfg    adapt.Config
	Seed   uint64
	Truth  [][]grid.Value
	Events []Event
	// Wire is every event back to back, ids 0..Distinct-1: what the traced
	// in-process spine replays.
	Wire []byte
	// Oracle holds each event's expected downlink record. The leading four
	// bytes (event id) are the template's own index and are not compared.
	Oracle [][]byte
	// Calibration is the pedestal set the daemon derives from its -seed.
	Calibration [][]adapt.Packet
}

// Digitizer is the front-end model at the workload's wire window.
func Digitizer() detector.DigitizerConfig {
	dig := detector.DefaultDigitizer()
	dig.Samples = samplesPerChannel
	return dig
}

// Generate builds a workload's inputs from the seed: the same seed gives the
// same bytes.
func Generate(w Workload, seed uint64) (*Inputs, error) {
	cfg, err := w.PipelineConfig()
	if err != nil {
		return nil, err
	}
	in := &Inputs{W: w, Cfg: cfg, Seed: seed}
	rng := detector.NewRNG(seed*0x9E3779B97F4A7C15 + w.salt)
	dig := Digitizer()
	offsets := make([][]int, w.Distinct)
	for i := 0; i < w.Distinct; i++ {
		truth := w.truth(cfg, rng)
		in.Truth = append(in.Truth, truth)
		packets, err := adapt.GenerateEvent(truth, cfg.ASICs, uint32(i), uint64(i)*1000, dig, rng)
		if err != nil {
			return nil, fmt.Errorf("generate %s event %d: %w", w.Name, i, err)
		}
		for p := range packets {
			offsets[i] = append(offsets[i], len(in.Wire))
			b, err := packets[p].Marshal()
			if err != nil {
				return nil, fmt.Errorf("marshal %s event %d: %w", w.Name, i, err)
			}
			in.Wire = append(in.Wire, b...)
		}
		offsets[i] = append(offsets[i], len(in.Wire))
	}
	// Subslice only after Wire stopped growing.
	in.Events = make([]Event, w.Distinct)
	for i, offs := range offsets {
		ev := &in.Events[i]
		ev.Stream = in.Wire[offs[0]:offs[len(offs)-1]]
		for p := 0; p+1 < len(offs); p++ {
			f := in.Wire[offs[p]:offs[p+1]]
			fp, err := adapt.NewFramePatcher(f)
			if err != nil {
				return nil, fmt.Errorf("patcher %s event %d: %w", w.Name, i, err)
			}
			ev.frames = append(ev.frames, f)
			ev.patchers = append(ev.patchers, fp)
		}
	}
	if w.Calibration > 0 {
		in.Calibration, err = adapt.GeneratePedestalEvents(w.Calibration, cfg.ASICs, dig,
			detector.NewRNG(calibrationSeed))
		if err != nil {
			return nil, fmt.Errorf("calibration events: %w", err)
		}
	}
	if err := in.computeOracle(); err != nil {
		return nil, err
	}
	return in, nil
}

// NewPipeline builds a pipeline of the workload's configuration with the
// given 2D backend, calibrated exactly as the daemon calibrates its worker.
func (in *Inputs) NewPipeline(backend adapt.ServeBackend) (*adapt.Pipeline, error) {
	cfg := in.Cfg
	cfg.Serve = backend
	p, err := adapt.New(cfg)
	if err != nil {
		return nil, err
	}
	if len(in.Calibration) > 0 {
		if err := p.Calibrate(in.Calibration); err != nil {
			p.Close()
			return nil, fmt.Errorf("calibrate: %w", err)
		}
	}
	return p, nil
}

// computeOracle decodes every generated event from its wire bytes and runs
// it through the reference path: the raster-scan per-pixel union-find
// (adapt.ServePixel) for 2D, and the cycle-accurate ProcessEvent for the 1D
// tracker, whose serving route has no backend switch.
func (in *Inputs) computeOracle() error {
	p, err := in.NewPipeline(adapt.ServePixel)
	if err != nil {
		return fmt.Errorf("oracle pipeline: %w", err)
	}
	defer p.Close()
	sr := adapt.NewStreamReader(bytes.NewReader(in.Wire))
	var packets []adapt.Packet
	var rec adapt.EventRecord
	in.Oracle = make([][]byte, len(in.Events))
	for i := range in.Events {
		packets, err = sr.ReadEventInto(packets, in.Cfg.ASICs)
		if err != nil {
			return fmt.Errorf("oracle decode event %d: %w", i, err)
		}
		if in.Cfg.Detection.TwoDimension {
			if err := p.ServeEvent(packets, &rec); err != nil {
				return fmt.Errorf("oracle event %d: %w", i, err)
			}
		} else {
			res, err := p.ProcessEvent(packets)
			if err != nil {
				return fmt.Errorf("oracle event %d: %w", i, err)
			}
			rec = adapt.RecordOf(res)
		}
		in.Oracle[i] = rec.AppendTo(nil)
	}
	return nil
}

// Counts are the input properties that must repeat exactly for a seed.
type Counts struct {
	WireBytesPerEvent   float64
	RecordBytesPerEvent float64
	IslandsPerEvent     float64
	LitFraction         float64
}

// Counts derives the exact per-event counts from the wire and the oracle
// records (island pixel counts sum to the lit pixels).
func (in *Inputs) Counts() Counts {
	n := float64(len(in.Events))
	var recBytes, islands, lit float64
	for _, rec := range in.Oracle {
		recBytes += float64(len(rec))
		r, err := adapt.UnmarshalEventRecord(rec)
		if err != nil {
			continue // the oracle encoded it itself; unreachable
		}
		islands += float64(len(r.Islands))
		for _, is := range r.Islands {
			lit += float64(is.Pixels)
		}
	}
	px := in.Cfg.ASICs * adapt.ChannelsPerASIC
	if d := in.Cfg.Detection; d.TwoDimension {
		px = d.TwoD.Rows * d.TwoD.Cols
	}
	return Counts{
		WireBytesPerEvent:   float64(len(in.Wire)) / n,
		RecordBytesPerEvent: recBytes / n,
		IslandsPerEvent:     islands / n,
		LitFraction:         lit / (n * float64(px)),
	}
}
