// Package hepccl is the public API of this reproduction of "Connected-
// Component Labeling Using HLS for High-Energy Particle Physics Instruments"
// (Song, Sudvarg, Chamberlain — SC Workshops '25).
//
// It re-exports the stable surface of the internal packages:
//
//   - pixel grids and label images (internal/grid);
//   - the paper's 1.5-pass CCL algorithm with merge table, in both the
//     published and the corrected update modes (internal/ccl);
//   - the HLS design simulations of the paper's four optimization stages
//     with Vitis-style synthesis reports (internal/design);
//   - the ADAPT front-end pipeline with the TWO_DIMENSION switch
//     (internal/adapt);
//   - the concurrent event-ingest service that serves that pipeline over
//     TCP with derandomizer-style bounded queues (internal/server; see
//     cmd/hepccld and cmd/loadgen);
//   - synthetic detector workloads (internal/detector) and island
//     centroiding (internal/centroid).
//
// Quickstart:
//
//	g := hepccl.MustParseGrid("#.#\n###")
//	res, err := hepccl.Label(g, hepccl.Options{Connectivity: hepccl.FourWay})
//	if err != nil { ... }
//	islands := hepccl.IslandsOf(g, res.Labels)
package hepccl

import (
	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
	"github.com/wustl-adapt/hepccl/internal/server"
)

// Grids and labels.
type (
	// Grid is a dense 2D pixel array in row-major order.
	Grid = grid.Grid
	// Labels is a per-pixel component-label image.
	Labels = grid.Labels
	// Value is one pixel's integrated channel value. Component labels share
	// the same underlying int32 width (0 = background).
	Value = grid.Value
	// Connectivity selects 4-way or 8-way adjacency.
	Connectivity = grid.Connectivity
)

// Connectivity constants.
const (
	FourWay  = grid.FourWay
	EightWay = grid.EightWay
)

// NewGrid returns a zeroed rows×cols grid.
func NewGrid(rows, cols int) *Grid { return grid.New(rows, cols) }

// ParseGrid builds a binary grid from ASCII art ('.' dark, '#' lit).
func ParseGrid(art string) (*Grid, error) { return grid.Parse(art) }

// MustParseGrid is ParseGrid that panics on error.
func MustParseGrid(art string) *Grid { return grid.MustParse(art) }

// GridFromFlat wraps a row-major value slice as a grid without copying.
func GridFromFlat(rows, cols int, data []Value) (*Grid, error) {
	return grid.FromFlat(rows, cols, data)
}

// The paper's 1.5-pass CCL.
type (
	// Options configures a labeling run.
	Options = ccl.Options
	// Result carries final labels, provisional labels, and the merge table.
	Result = ccl.Result
	// Mode selects the published or corrected merge-table update.
	Mode = ccl.Mode
	// MergeTable is the equivalence table of §4.2–4.4.
	MergeTable = ccl.MergeTable
	// Island is one connected component with its pixels and energy sum.
	Island = ccl.Island
)

// Mode constants.
const (
	// ModeFixed is the corrected update (default).
	ModeFixed = ccl.ModeFixed
	// ModePaper reproduces the published algorithm, §6 corner case and all.
	ModePaper = ccl.ModePaper
)

// Label runs 1.5-pass connected-component labeling over g.
func Label(g *Grid, opt Options) (*Result, error) { return ccl.Label(g, opt) }

// IslandsOf groups lit pixels by final label.
func IslandsOf(g *Grid, l *Labels) []Island { return ccl.Islands(g, l) }

// LargestIsland returns the island with the most pixels, or nil.
func LargestIsland(islands []Island) *Island { return ccl.LargestIsland(islands) }

// MergeTableSizePaper is the paper's §5.5 merge-table sizing.
func MergeTableSizePaper(rows, cols int) int { return ccl.SizeForPaper(rows, cols) }

// MergeTableSize is the worst-case-safe sizing for a connectivity.
func MergeTableSize(rows, cols int, conn Connectivity) int {
	return ccl.SizeFor(rows, cols, conn)
}

// HLS design simulations (§5).
type (
	// DesignConfig selects array size, connectivity, and optimization stage.
	DesignConfig = design.Config
	// DesignOutput is a design run's labels plus synthesis report.
	DesignOutput = design.Output
	// Stage is one optimization stage of the §5 study.
	Stage = design.Stage
	// Report is a Vitis-style synthesis report row.
	Report = resource.Report
	// Device models an FPGA part's capacities.
	Device = resource.Device
)

// Optimization stages.
const (
	StageBaseline    = design.StageBaseline
	StageBindStorage = design.StageBindStorage
	StageUnrolled    = design.StageUnrolled
	StagePipelined   = design.StagePipelined
)

// KintexXC7K325T is the paper's synthesis target device.
var KintexXC7K325T = resource.KintexXC7K325T

// RunDesign executes one island_detection_2d configuration on an event.
func RunDesign(g *Grid, cfg DesignConfig) (*DesignOutput, error) { return design.Run(g, cfg) }

// DesignLatency returns a configuration's worst-case latency in cycles.
func DesignLatency(stage Stage, conn Connectivity, rows, cols int) int64 {
	return design.Latency(stage, conn, rows, cols)
}

// Stages lists the four optimization stages in study order.
func Stages() []Stage { return design.Stages() }

// ADAPT pipeline (Fig 3).
type (
	// Pipeline is the instantiated front-end pipeline.
	Pipeline = adapt.Pipeline
	// PipelineConfig parameterizes one pipeline build.
	PipelineConfig = adapt.Config
	// Packet is one 16-channel digitizer readout.
	Packet = adapt.Packet
	// EventResult is the pipeline output for one trigger.
	EventResult = adapt.EventResult
)

// NewPipeline builds a validated pipeline.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return adapt.New(cfg) }

// IslandRecord is one island's label, size, charge, and Q16.16 centroid
// within an EventRecord downlink frame.
type IslandRecord = adapt.IslandRecord

// Event-ingest service (internal/server): the ADAPT pipeline as a network
// daemon with sharded workers and derandomizer-style bounded queues. See
// cmd/hepccld and cmd/loadgen for the runnable pair.
type (
	// Server is the concurrent event-ingest service.
	Server = server.Server
	// ServerConfig parameterizes workers, queue depth, and overflow policy.
	ServerConfig = server.Config
	// OverflowPolicy selects what a full worker queue does to new events.
	OverflowPolicy = server.OverflowPolicy
	// ServerStats is a point-in-time snapshot of the service counters.
	ServerStats = server.Snapshot
)

// Overflow policies.
const (
	// PolicyDrop discards overflowing events, like the §6 derandomizer FIFO.
	PolicyDrop = server.PolicyDrop
	// PolicyBlock applies backpressure to the ingest connection instead.
	PolicyBlock = server.PolicyBlock
)

// ErrServerClosed is returned by a server's accept loop after Shutdown.
var ErrServerClosed = server.ErrServerClosed

// NewServer builds a validated event-ingest server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ADAPTConfig returns the synthetic ADAPT flight configuration (1D mode).
func ADAPTConfig() PipelineConfig { return adapt.DefaultADAPT() }

// CTAConfig returns the CTA-style 43×43 2D configuration.
func CTAConfig() PipelineConfig { return adapt.DefaultCTA() }

// FrameConfig returns a 2D configuration for an arbitrary rows×cols frame
// geometry. Every frame size serves through the same run-based labeler as
// the 43×43 camera.
func FrameConfig(rows, cols int) PipelineConfig { return adapt.DefaultFrame(rows, cols) }

// Workload generation and centroiding.
type (
	// RNG is the deterministic generator all workloads use.
	RNG = detector.RNG
	// Centroid2D is an island's energy-weighted centroid.
	Centroid2D = centroid.Centroid2D
	// Hillas is an island's second-moment ellipse parameterization.
	Hillas = centroid.Hillas
)

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return detector.NewRNG(seed) }

// Centroids computes energy-weighted centroids for islands.
func Centroids(islands []Island) []Centroid2D { return centroid.All2D(islands) }

// HillasOf computes the Hillas parameters of one island.
func HillasOf(is Island) Hillas { return centroid.HillasParameters(is) }

// Ring is a fitted circle over an island's pixels (muon calibration).
type Ring = centroid.Ring

// FitRing fits a circle to an island with the weighted Kåsa method.
func FitRing(is Island) (Ring, error) { return centroid.FitRing(is) }
