package adapt

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
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
// (320 channels) in 1D mode with the pipelined schedule — the configuration
// whose ~300k events/s matches the pipeline throughput reported in §2.
func DefaultADAPT() Config {
	return Config{
		ASICs:             20,
		SamplesPerChannel: 16,
		PedestalPerSample: 200,
		GainADC:           40,
		ThresholdPE:       2,
		Detection:         design.TopConfig{OneDPipelined: true},
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

// Pipeline is one instantiated FPGA pipeline. A Pipeline holds calibration
// and scratch state and is not safe for concurrent use; concurrent servers
// run one Pipeline per worker (see internal/server).
type Pipeline struct {
	cfg       Config
	merger    *Merger
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
	if cfg.Detection.TwoDimension {
		px := cfg.Detection.TwoD.Rows * cfg.Detection.TwoD.Cols
		if cfg.Detection.TwoD.Rows < 1 || cfg.Detection.TwoD.Cols < 1 {
			return nil, fmt.Errorf("adapt: 2D mode needs positive array dims")
		}
		if px > channels {
			return nil, fmt.Errorf("adapt: %d pixels exceed %d digitizer channels",
				px, channels)
		}
	}
	merger, err := NewMerger(cfg.ASICs)
	if err != nil {
		return nil, err
	}
	peds := make([]int64, channels)
	nominal := cfg.PedestalPerSample * int64(cfg.SamplesPerChannel)
	for i := range peds {
		peds[i] = nominal
	}
	p := &Pipeline{cfg: cfg, merger: merger, pedestals: peds}
	p.cutoff = (int64(cfg.ThresholdPE)+1)*cfg.GainADC - cfg.GainADC/2
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
func (p *Pipeline) Channels() int { return p.merger.Channels() }

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
	// Islands are the extracted 2D islands (2D mode only).
	Islands []ccl.Island
	// Centroids are the 2D island centroids (2D mode only).
	Centroids []centroid.Centroid2D
	// HardwareCentroids are the fixed-point centroids from the streaming
	// island_centroid_2d design (2D mode only) — what the FPGA actually
	// transmits; Centroids is the float reference.
	HardwareCentroids *design.CentroidOutput
}

// ProcessEvent runs one trigger's packets through the full pipeline:
// packet handling → integration → pedestal subtraction → photon counting →
// zero-suppression → merge → island detection (+ centroiding).
func (p *Pipeline) ProcessEvent(packets []Packet) (*EventResult, error) {
	// The cycle-accurate path models the hardware Merge module, whose ASIC
	// streams are keyed by the one-byte wire field; frame geometries beyond
	// 256 ASICs exist only on the serving path.
	if p.cfg.ASICs > 256 {
		return nil, fmt.Errorf("adapt: cycle-accurate pipeline supports at most 256 ASICs, have %d (use ServeEvent)", p.cfg.ASICs)
	}
	if err := p.checkEvent(packets); err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	blocks := make(map[uint8][ChannelsPerASIC]grid.Value, len(packets))
	for i := range packets {
		pkt := &packets[i]
		ints := pkt.Integrals()
		var block [ChannelsPerASIC]grid.Value
		base := int(pkt.ASIC) * ChannelsPerASIC
		for ch, raw := range ints {
			net := PedestalSubtract(raw, p.pedestals[base+ch])
			pe := PhotonCount(net, p.cfg.GainADC)
			block[ch] = ZeroSuppress(pe, p.cfg.ThresholdPE)
		}
		blocks[pkt.ASIC] = block
	}
	merged, err := p.merger.Merge(blocks)
	if err != nil {
		return nil, err
	}

	res := &EventResult{Event: packets[0].Event, Values: merged}
	det := p.cfg.Detection
	if det.TwoDimension {
		// The camera may be smaller than the padded channel array.
		px := det.TwoD.Rows * det.TwoD.Cols
		out, err := design.IslandDetection(merged[:px], det)
		if err != nil {
			return nil, err
		}
		res.TwoD = out.TwoD
		g, err := grid.FromFlat(det.TwoD.Rows, det.TwoD.Cols, merged[:px])
		if err != nil {
			return nil, err
		}
		res.Islands = ccl.Islands(g, out.TwoD.Labels)
		res.Centroids = centroid.All2D(res.Islands)
		// The streaming hardware centroid stage (Fig 3's centroiding half).
		// Final labels are merge-table roots, bounded by its capacity.
		hw, err := design.RunCentroid2D(g, out.TwoD.Labels, ccl.SizeFor(det.TwoD.Rows, det.TwoD.Cols, det.TwoD.Connectivity))
		if err != nil {
			return nil, err
		}
		res.HardwareCentroids = hw
		return res, nil
	}
	out, err := design.IslandDetection(merged, det)
	if err != nil {
		return nil, err
	}
	res.OneD = out.OneD
	return res, nil
}
