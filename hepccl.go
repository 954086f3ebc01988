// Package hepccl is the public API of this reproduction of "Connected-
// Component Labeling Using HLS for High-Energy Particle Physics Instruments"
// (Song, Sudvarg, Chamberlain — SC Workshops '25).
//
// It re-exports the slice of the internal packages that the package's
// examples walk through, each one checked by `go test`:
//
//   - the paper's 1.5-pass CCL algorithm with merge table, in both the
//     published and the corrected update modes (internal/ccl), with island
//     centroids, Hillas parameters and muon-ring fits (internal/centroid);
//   - the HLS design simulations of the paper's four optimization stages
//     with Vitis-style synthesis reports (internal/design);
//   - the ADAPT front-end pipeline and its two-layer tracker station
//     (internal/adapt);
//   - synthetic detector workloads (internal/detector).
//
// The paper's tables and figures come from cmd/experiments; the serving
// daemon, gateway and load generator are cmd/hepccld, cmd/hepcclgw and
// cmd/loadgen.
package hepccl

import (
	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/hls/resource"
)

// Connectivity selects 4-way or 8-way adjacency.
type Connectivity = grid.Connectivity

// Connectivity constants.
const (
	FourWay  = grid.FourWay
	EightWay = grid.EightWay
)

// MustParseGrid builds a binary grid from ASCII art ('.' dark, '#' lit) and
// panics on error.
func MustParseGrid(art string) *grid.Grid { return grid.MustParse(art) }

// Options configures a run of the paper's 1.5-pass CCL.
type Options = ccl.Options

// Mode constants.
const (
	// ModeFixed is the corrected update (default).
	ModeFixed = ccl.ModeFixed
	// ModePaper reproduces the published algorithm, §6 corner case and all.
	ModePaper = ccl.ModePaper
)

// Label runs 1.5-pass connected-component labeling over g.
func Label(g *grid.Grid, opt Options) (*ccl.Result, error) { return ccl.Label(g, opt) }

// IslandsOf groups lit pixels by final label.
func IslandsOf(g *grid.Grid, l *grid.Labels) []ccl.Island { return ccl.Islands(g, l) }

// LargestIsland returns the island with the most pixels, or nil.
func LargestIsland(islands []ccl.Island) *ccl.Island { return ccl.LargestIsland(islands) }

// MergeTableSize is the worst-case-safe merge-table sizing for a connectivity.
func MergeTableSize(rows, cols int, conn Connectivity) int {
	return ccl.SizeFor(rows, cols, conn)
}

// Centroids computes energy-weighted centroids for islands.
func Centroids(islands []ccl.Island) []centroid.Centroid2D { return centroid.All2D(islands) }

// HillasOf computes the Hillas parameters of one island.
func HillasOf(is ccl.Island) centroid.Hillas { return centroid.HillasParameters(is) }

// FitRing fits a circle to an island with the weighted Kåsa method.
func FitRing(is ccl.Island) (centroid.Ring, error) { return centroid.FitRing(is) }

// HLS design simulations (§5).
type (
	// DesignConfig selects array size, connectivity, and optimization stage.
	DesignConfig = design.Config
	// Report is a Vitis-style synthesis report row.
	Report = resource.Report
)

// StagePipelined is the fully pipelined design of §5.4.
const StagePipelined = design.StagePipelined

// KintexXC7K325T is the paper's synthesis target device.
var KintexXC7K325T = resource.KintexXC7K325T

// RunDesign executes one island_detection_2d configuration on an event.
func RunDesign(g *grid.Grid, cfg DesignConfig) (*design.Output, error) { return design.Run(g, cfg) }

// Stages lists the four optimization stages in study order.
func Stages() []design.Stage { return design.Stages() }

// NewPipeline builds a validated ADAPT front-end pipeline (Fig 3).
func NewPipeline(cfg adapt.Config) (*adapt.Pipeline, error) { return adapt.New(cfg) }

// ADAPTConfig returns the synthetic ADAPT flight configuration (1D mode).
func ADAPTConfig() adapt.Config { return adapt.DefaultADAPT() }

// NewInstrument builds a two-layer (X/Y) tracker station from a 1D pipeline
// configuration.
func NewInstrument(cfg adapt.Config) (*adapt.Instrument, error) { return adapt.NewInstrument(cfg) }

// GenerateEvent digitizes a true photo-electron image into ALPHA packets.
func GenerateEvent(pe []grid.Value, asics int, event uint32, timestamp uint64,
	dig detector.DigitizerConfig, rng *detector.RNG) ([]adapt.Packet, error) {
	return adapt.GenerateEvent(pe, asics, event, timestamp, dig, rng)
}

// GeneratePedestalEvents builds light-free calibration events.
func GeneratePedestalEvents(n, asics int, dig detector.DigitizerConfig, rng *detector.RNG) ([][]adapt.Packet, error) {
	return adapt.GeneratePedestalEvents(n, asics, dig, rng)
}

// RecordOf packs a pipeline result into its downlink record.
func RecordOf(res *adapt.EventResult) adapt.EventRecord { return adapt.RecordOf(res) }

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *detector.RNG { return detector.NewRNG(seed) }

// LSTCamera approximates CTA's Large-Sized Telescope camera (43×43, §5.5).
func LSTCamera() detector.CameraConfig { return detector.LSTCamera() }

// DefaultTracker returns the synthetic ADAPT tracker configuration
// (320 channels over 20 ALPHA ASICs).
func DefaultTracker() detector.TrackerConfig { return detector.DefaultTracker() }

// DefaultDigitizer returns the synthetic front-end digitizer configuration.
func DefaultDigitizer() detector.DigitizerConfig { return detector.DefaultDigitizer() }

// RandomIslands scatters blob-shaped islands across a grid.
func RandomIslands(rows, cols, count int, radius float64, rng *detector.RNG) *grid.Grid {
	return detector.RandomIslands(rows, cols, count, radius, rng)
}
