package adapt

import "github.com/wustl-adapt/hepccl/internal/grid"

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
