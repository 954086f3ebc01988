package adapt

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Per-channel processing stages of Fig 3. Each stage is a pure function so
// the pipeline stays testable; the dataflow composition and its cycle model
// live in pipeline.go.

// PedestalSubtract removes the baseline integral from a raw waveform
// integral. Results are clamped at zero: a downward noise fluctuation cannot
// represent negative light.
func PedestalSubtract(raw, pedestal int64) int64 {
	net := raw - pedestal
	if net < 0 {
		return 0
	}
	return net
}

// PhotonCount converts a pedestal-subtracted integral to photo-electron
// counts by rounded division with the single-p.e. gain.
func PhotonCount(net int64, gainADC int64) grid.Value {
	if gainADC <= 0 {
		return 0
	}
	return grid.Value((net + gainADC/2) / gainADC)
}

// ZeroSuppress forces counts at or below the threshold to zero; islands are
// then maximal connected regions of survivors.
func ZeroSuppress(pe grid.Value, threshold grid.Value) grid.Value {
	if pe <= threshold {
		return 0
	}
	return pe
}

// Merger fuses the zero-suppressed 16-channel outputs of the event's ASICs
// into one flat, event-wide channel array (§4.1).
type Merger struct {
	asics int
}

// NewMerger returns a merger expecting the given ASIC count per event.
func NewMerger(asics int) (*Merger, error) {
	if asics < 1 {
		return nil, fmt.Errorf("adapt: merger needs at least one ASIC, got %d", asics)
	}
	return &Merger{asics: asics}, nil
}

// Channels returns the merged event width in channels.
func (m *Merger) Channels() int { return m.asics * ChannelsPerASIC }

// Merge assembles per-ASIC channel blocks into the flat event array.
// blocks must be indexed by ASIC id and complete.
func (m *Merger) Merge(blocks map[uint8][ChannelsPerASIC]grid.Value) ([]grid.Value, error) {
	if len(blocks) != m.asics {
		return nil, fmt.Errorf("adapt: merge got %d ASIC blocks, want %d", len(blocks), m.asics)
	}
	out := make([]grid.Value, m.Channels())
	for a := 0; a < m.asics; a++ {
		block, ok := blocks[uint8(a)]
		if !ok {
			return nil, fmt.Errorf("adapt: merge missing ASIC %d", a)
		}
		copy(out[a*ChannelsPerASIC:(a+1)*ChannelsPerASIC], block[:])
	}
	return out, nil
}
