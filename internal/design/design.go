package design

import (
	"fmt"
	"io"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Stage is one step of the paper's optimization study (§5).
type Stage int

const (
	// StageBaseline is the naïve pragma-free design (§5.1).
	StageBaseline Stage = iota
	// StageBindStorage binds the merge table to dual-port BRAM (§5.2).
	StageBindStorage
	// StageUnrolled adds ×16 loop unrolling with cyclic array partitioning
	// on the input structuring loop (§5.3).
	StageUnrolled
	// StagePipelined pipelines the load/scan/output loops to II=1 (§5.4) —
	// the configuration evaluated for scalability in §5.5.
	StagePipelined
)

// Stages lists all optimization stages in study order.
func Stages() []Stage {
	return []Stage{StageBaseline, StageBindStorage, StageUnrolled, StagePipelined}
}

// String returns the stage name as printed in Tables 1 and 2.
func (s Stage) String() string {
	switch s {
	case StageBaseline:
		return "Baseline"
	case StageBindStorage:
		return "Bind Storage"
	case StageUnrolled:
		return "Unrolled"
	case StagePipelined:
		return "Pipelined"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Valid reports whether s names a real stage.
func (s Stage) Valid() bool { return s >= StageBaseline && s <= StagePipelined }

// Config selects a synthesizable configuration of the island-detection
// design — the knobs the paper sets with preprocessor macros and template
// parameters (TWO_DIMENSION, EIGHTWAY_NEIGHBORS, NROWS/NCOLS, and the
// pragma set of each optimization stage).
type Config struct {
	// Rows, Cols fix the sensor array shape (NROWS × NCOLS).
	Rows, Cols int
	// Connectivity selects 4-way or 8-way CCL (EIGHTWAY_NEIGHBORS).
	Connectivity grid.Connectivity
	// Stage selects the optimization stage.
	Stage Stage
	// DualWriteStreams reproduces the pre-Fig-12 pipelined design whose two
	// possible writers to stream_top created a false memory dependency and
	// forced the scan to II=2. Only meaningful for StagePipelined.
	DualWriteStreams bool
	// FixedUpdate enables the §6 "logical fix" (root-chasing merge-table
	// unions) instead of the published raw minimum-update. The published
	// hardware uses false.
	FixedUpdate bool
	// MergeTableCap overrides the merge-table capacity. Zero uses the
	// paper's sizing, ⌈(R+1)/2⌉·⌈(C+1)/2⌉ (§5.5). Note the reproduction
	// finding (EXPERIMENTS.md E9): that sizing can overflow under 4-way
	// worst-case inputs; Run reports ErrMergeTableFull when it does.
	MergeTableCap int
	// TraceWriter, when non-nil, receives a VCD waveform of the scan loop
	// (one tick per pixel: scan index, litness, assigned label, merge-table
	// activity) — the co-simulation debugging artifact. Nothing is written
	// when the run fails, e.g. on a merge-table overflow.
	TraceWriter io.Writer
}

func (c Config) validate() error {
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("design: invalid array size %dx%d", c.Rows, c.Cols)
	}
	if !c.Connectivity.Valid() {
		return fmt.Errorf("design: invalid connectivity %d", int(c.Connectivity))
	}
	if !c.Stage.Valid() {
		return fmt.Errorf("design: invalid stage %d", int(c.Stage))
	}
	return nil
}
