package adapt

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/runccl"
)

// Config parameterizes one build of the FPGA pipeline — the values the real
// firmware fixes at compile time.
type Config struct {
	// ASICs is the number of 16-channel digitizers per event.
	ASICs int
	// SamplesPerChannel is the waveform window length.
	SamplesPerChannel int
	// PedestalPerSample is the nominal baseline per ADC sample; the
	// per-channel pedestal integral is PedestalPerSample ×
	// SamplesPerChannel unless Calibrate has measured channel-specific
	// values.
	PedestalPerSample int64
	// GainADC is the ADC integral of one photo-electron.
	GainADC int64
	// ThresholdPE zero-suppresses photo-electron counts at or below it.
	ThresholdPE grid.Value
	// Detection selects and configures the island-detection back end
	// (the TWO_DIMENSION switch).
	Detection design.TopConfig
	// Serve selects the labeling backend of serving. The zero value,
	// ServeRun, is what the daemon serves with at every frame size and in 1D;
	// ServePixel is the flood-fill oracle tests and bench/ build explicitly,
	// for 2D and 1D configs alike.
	Serve ServeBackend
}

// ServeBackend selects the island-labeling engine behind serving. Both
// produce the identical island partition, statistics, and compact raster
// numbering; they differ only in cost scaling.
type ServeBackend int

const (
	// ServeRun (the default) is the run-based labeler (runccl.Batch): runs
	// are built straight from the lit list, so labeling cost scales with lit
	// content, not array area, at any frame size. In 1D it is the direct
	// scan for consecutive lit channels.
	ServeRun ServeBackend = iota
	// ServePixel labels the merged image with flood fill
	// (labeling.FloodFill): the per-pixel oracle for differential testing.
	// A 1D config's image is one row of its channels.
	ServePixel
)

// String implements fmt.Stringer.
func (b ServeBackend) String() string {
	switch b {
	case ServePixel:
		return "pixel"
	case ServeRun:
		return "run"
	default:
		return fmt.Sprintf("ServeBackend(%d)", int(b))
	}
}

// DefaultADAPT returns the synthetic ADAPT flight configuration: 20 ASICs
// (320 channels) in 1D mode — the configuration whose ~300k events/s matches
// the pipeline throughput reported in §2.
func DefaultADAPT() Config {
	return Config{
		ASICs:             20,
		SamplesPerChannel: 16,
		PedestalPerSample: 200,
		GainADC:           40,
		ThresholdPE:       2,
	}
}

// DefaultFrame returns a configuration for an arbitrary 2D frame geometry —
// the pixel-telescope / imaging workload class beyond the paper's cameras.
// Channel math is the same as DefaultCTA (⌈px/16⌉ 16-channel ASICs,
// zero-padded); the readout window is short (4 samples) because at megapixel
// scale the wire cost per event is dominated by channel count.
func DefaultFrame(rows, cols int) Config {
	px := rows * cols
	return Config{
		ASICs:             (px + ChannelsPerASIC - 1) / ChannelsPerASIC,
		SamplesPerChannel: 4,
		PedestalPerSample: 200,
		GainADC:           40,
		ThresholdPE:       2,
		Detection: design.TopConfig{
			TwoDimension: true,
			TwoD: design.Config{
				Rows: rows, Cols: cols,
				Connectivity: grid.FourWay,
				Stage:        design.StagePipelined,
			},
		},
	}
}

// DefaultCTA returns the CTA-style configuration the paper targets: a 43×43
// camera (1849 pixels ⇒ 116 ASICs, zero-padded) in 2D mode with 4-way CCL on
// the fully pipelined design.
func DefaultCTA() Config {
	return Config{
		ASICs:             116, // ⌈1849/16⌉
		SamplesPerChannel: 16,
		PedestalPerSample: 200,
		GainADC:           40,
		ThresholdPE:       2,
		Detection: design.TopConfig{
			TwoDimension: true,
			TwoD: design.Config{
				Rows: 43, Cols: 43,
				Connectivity: grid.FourWay,
				Stage:        design.StagePipelined,
			},
		},
	}
}

// NamedConfig resolves the -config name the commands share: adapt
// (DefaultADAPT), cta (DefaultCTA) or RxC, a 2D frame geometry such as
// 512x512 (DefaultFrame). A positive samples overrides the configuration's
// SamplesPerChannel.
func NamedConfig(name string, samples int) (Config, error) {
	var cfg Config
	switch name {
	case "adapt":
		cfg = DefaultADAPT()
	case "cta":
		cfg = DefaultCTA()
	default:
		r, c, ok := strings.Cut(name, "x")
		rows, rerr := strconv.Atoi(r)
		cols, cerr := strconv.Atoi(c)
		if !ok || rerr != nil || cerr != nil || rows <= 0 || cols <= 0 {
			return cfg, fmt.Errorf("unknown -config %q (want adapt, cta, or RxC like 512x512)", name)
		}
		cfg = DefaultFrame(rows, cols)
	}
	if samples > 0 {
		cfg.SamplesPerChannel = samples
	}
	return cfg, nil
}

// Pipeline is one instantiated FPGA pipeline. A Pipeline holds calibration
// and scratch state and is not safe for concurrent use; concurrent servers
// run one Pipeline per worker (see internal/server).
type Pipeline struct {
	cfg       Config
	pedestals []int64 // per flat channel, integral units
	serve     serveScratch
	runBatch  *runccl.Batch // 2D run labeler, one event's arena; nil for 1D and ServePixel
	seen      []uint64      // checkEvent duplicate-ASIC bitmap, one bit per ASIC

	// The serving geometry, resolved once by New: a 2D config's array, or a
	// 1D config's channels as one row; 8-way only when a 2D config asks for
	// it, 4-way otherwise.
	rows, cols int
	conn       grid.Connectivity

	// cutoff is the ADC-domain zero-suppression threshold: with rounded
	// division by gain g, pe > T ⇔ net ≥ (T+1)·g − g/2, so suppressed
	// channels never pay the photon-count division. sup folds the pedestals
	// into it per channel; Calibrate replaces it.
	cutoff int64
	sup    *Suppressor
	// pcM/pcMax implement PhotonCount's divide-by-gain as an exact magic
	// multiply for numerators in [0, pcMax): with M = ⌊2^47/g⌋+1 = (2^47+e)/g
	// (0 < e ≤ g), ⌊n·M/2^47⌋ = ⌊n/g + n·e/(g·2^47)⌋ equals ⌊n/g⌋ whenever
	// the error term stays below 1/(2g), which n ≤ 2^23 and g < 2^23
	// guarantee; pcMax also caps n·M below 2^63. Out-of-range numerators
	// (including negative ones, where Go's truncating division differs from
	// floor) fall back to the real division.
	pcM   uint64
	pcMax uint64
}

// maxSide is the longest frame side, or 1D channel count, whose centroids a
// Q16.16 record field holds: coordinate 32767 is the largest below 2^15.
const maxSide = 1 << 15

// New validates the configuration and builds the pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.ASICs < 1 {
		return nil, fmt.Errorf("adapt: need at least one ASIC")
	}
	if cfg.ASICs > MaxASICs {
		return nil, fmt.Errorf("adapt: %d ASICs exceed the %d the wire index addresses", cfg.ASICs, MaxASICs)
	}
	switch cfg.Serve {
	case ServeRun, ServePixel:
	default:
		return nil, fmt.Errorf("adapt: unknown serve backend %d", int(cfg.Serve))
	}
	if cfg.SamplesPerChannel < 1 || cfg.SamplesPerChannel > 255 {
		return nil, fmt.Errorf("adapt: samples per channel %d outside 1..255", cfg.SamplesPerChannel)
	}
	if cfg.GainADC <= 0 {
		return nil, fmt.Errorf("adapt: gain must be positive")
	}
	channels := cfg.ASICs * ChannelsPerASIC
	if det := cfg.Detection; det.TwoDimension {
		if det.TwoD.Rows < 1 || det.TwoD.Cols < 1 {
			return nil, fmt.Errorf("adapt: 2D mode needs positive array dims")
		}
		if px := det.TwoD.Rows * det.TwoD.Cols; px > channels {
			return nil, fmt.Errorf("adapt: %d pixels exceed %d digitizer channels",
				px, channels)
		}
		if side := max(det.TwoD.Rows, det.TwoD.Cols); side > maxSide {
			return nil, fmt.Errorf("adapt: %dx%d frame: a side above %d overflows a Q16.16 centroid",
				det.TwoD.Rows, det.TwoD.Cols, maxSide)
		}
	} else if channels > maxSide {
		return nil, fmt.Errorf("adapt: %d channels in 1D: more than %d overflow a Q16.16 centroid",
			channels, maxSide)
	}
	peds := make([]int64, channels)
	nominal := cfg.PedestalPerSample * int64(cfg.SamplesPerChannel)
	for i := range peds {
		peds[i] = nominal
	}
	p := &Pipeline{cfg: cfg, pedestals: peds}
	p.cutoff = (int64(cfg.ThresholdPE)+1)*cfg.GainADC - cfg.GainADC/2
	var err error
	if p.sup, err = newSuppressor(cfg.ASICs, cfg.SamplesPerChannel, p.cutoff, peds); err != nil {
		return nil, err
	}
	if cfg.GainADC < 1<<23 {
		p.pcM = uint64(1)<<47/uint64(cfg.GainADC) + 1
		p.pcMax = uint64(1) << 23
		if lim := (uint64(1) << 63) / p.pcM; lim < p.pcMax {
			p.pcMax = lim
		}
	}
	p.rows, p.cols, p.conn = 1, channels, grid.FourWay
	if det := cfg.Detection; det.TwoDimension {
		p.rows, p.cols = det.TwoD.Rows, det.TwoD.Cols
		if det.TwoD.Connectivity == grid.EightWay {
			p.conn = grid.EightWay
		}
	}
	if cfg.Detection.TwoDimension && cfg.Serve != ServePixel {
		eng, err := runccl.NewEngine(p.rows, p.cols, p.conn)
		if err != nil {
			return nil, fmt.Errorf("adapt: %w", err)
		}
		p.runBatch = eng.NewBatch()
	}
	p.seen = make([]uint64, (cfg.ASICs+63)/64)
	return p, nil
}

// Close does nothing: a pipeline owns no goroutines or handles. It is kept
// only because bench/ (which a non-benchmark PR may not edit) still calls it;
// it leaves with those calls.
func (p *Pipeline) Close() {}

// ServeEngine names the labeling backend serving resolved to — "run",
// "pixel" or "1d" (ServeRun on a 1D config) — for the /stats serve_backend
// field.
func (p *Pipeline) ServeEngine() string {
	if !p.cfg.Detection.TwoDimension && p.cfg.Serve == ServeRun {
		return "1d"
	}
	return p.cfg.Serve.String()
}

// Suppressor returns the pipeline's current zero-suppression table for
// stream readers to share. Take it after calibration: Calibrate installs a
// new one and leaves earlier ones untouched.
func (p *Pipeline) Suppressor() *Suppressor { return p.sup }

// Channels returns the flat merged channel count.
func (p *Pipeline) Channels() int { return p.cfg.ASICs * ChannelsPerASIC }

// Calibrate measures per-channel pedestal integrals from pedestal-only
// events (no light), replacing the nominal baseline — the data-acquisition
// calibration pass the real instrument runs before observing.
func (p *Pipeline) Calibrate(events [][]Packet) error {
	if len(events) == 0 {
		return fmt.Errorf("adapt: calibration needs at least one event")
	}
	sums := make([]int64, p.Channels())
	for _, packets := range events {
		if err := p.checkEvent(packets); err != nil {
			return fmt.Errorf("adapt: calibration: %w", err)
		}
		addIntegrals(sums, packets)
	}
	return p.SetPedestals(meanOf(sums, len(events)))
}

// SetPedestals installs measured per-channel pedestal integrals — what
// Calibrate computes, or MeasurePedestals without the events — replacing the
// nominal baseline. The table is copied. A table that puts any channel's
// suppression limit (cutoff + pedestal) below −2^30 is refused and the
// pipeline keeps its previous one.
func (p *Pipeline) SetPedestals(pedestals []int64) error {
	if len(pedestals) != len(p.pedestals) {
		return fmt.Errorf("adapt: %d pedestals for %d channels", len(pedestals), len(p.pedestals))
	}
	sup, err := newSuppressor(p.cfg.ASICs, p.cfg.SamplesPerChannel, p.cutoff, pedestals)
	if err != nil {
		return err
	}
	copy(p.pedestals, pedestals)
	p.sup = sup
	return nil
}

// Pedestal returns the calibrated pedestal integral of a flat channel.
func (p *Pipeline) Pedestal(channel int) int64 { return p.pedestals[channel] }

// checkEvent validates event packet structure: one packet per ASIC, matching
// event ids and sample counts.
func (p *Pipeline) checkEvent(packets []Packet) error {
	if len(packets) != p.cfg.ASICs {
		return fmt.Errorf("event has %d packets, want %d", len(packets), p.cfg.ASICs)
	}
	for i := range p.seen {
		p.seen[i] = 0
	}
	for i := range packets {
		if err := p.sup.checkPacket(p.seen, packets[0].Event, &packets[i]); err != nil {
			return err
		}
	}
	return nil
}

// EventResult is the pipeline's output for one trigger.
type EventResult struct {
	// Event is the trigger sequence number.
	Event uint32
	// Values is the merged, zero-suppressed photo-electron image (flat).
	Values []grid.Value
	// OneD holds the 1D islands + centroids when TWO_DIMENSION is unset.
	OneD *design.Output1D
	// TwoD holds the 2D design output when TWO_DIMENSION is set.
	TwoD *design.Output
	// HardwareCentroids are the fixed-point centroids from the streaming
	// island_centroid_2d design (2D mode only) — what the FPGA actually
	// transmits.
	HardwareCentroids *design.CentroidOutput
}

// ProcessEvent runs one trigger's packets through the full pipeline:
// packet handling → integration → pedestal subtraction → photon counting →
// zero-suppression → merge → island detection (+ centroiding).
func (p *Pipeline) ProcessEvent(packets []Packet) (*EventResult, error) {
	if err := p.checkEvent(packets); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	// Merge (§4.1): each ASIC's 16 channels land at its offset of the flat
	// event array; checkEvent has proven every ASIC present exactly once.
	merged := make([]grid.Value, p.Channels())
	for i := range packets {
		pkt := &packets[i]
		base := pkt.ASICIndex() * ChannelsPerASIC
		for ch, raw := range pkt.Integrals() {
			net := PedestalSubtract(raw, p.pedestals[base+ch])
			merged[base+ch] = ZeroSuppress(PhotonCount(net, p.cfg.GainADC), p.cfg.ThresholdPE)
		}
	}

	res := &EventResult{Event: packets[0].Event, Values: merged}
	det := p.cfg.Detection
	if !det.TwoDimension {
		out, err := design.RunIsland1D(merged)
		if err != nil {
			return nil, err
		}
		res.OneD = out
		return res, nil
	}
	// The camera may be smaller than the padded channel array.
	g, err := grid.FromFlat(p.rows, p.cols, merged[:p.rows*p.cols])
	if err != nil {
		return nil, err
	}
	out, err := design.Run(g, det.TwoD)
	if err != nil {
		return nil, err
	}
	res.TwoD = out
	// The streaming hardware centroid stage (Fig 3's centroiding half).
	// Final labels are merge-table roots, bounded by its capacity.
	res.HardwareCentroids, err = design.RunCentroid2D(g, out.Labels, ccl.SizeFor(p.rows, p.cols, det.TwoD.Connectivity))
	if err != nil {
		return nil, err
	}
	return res, nil
}
