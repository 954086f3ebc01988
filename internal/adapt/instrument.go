package adapt

import (
	"fmt"
	"math"
	"sort"

	"github.com/wustl-adapt/hepccl/internal/design"
)

// Instrument models one ADAPT tracker station: two identical FPGA pipelines
// reading perpendicular 1D fiber layers — "ADAPT's 2D spatial reconstruction
// uses perpendicular 1D arrays of optical fibers" (§2). The event builder
// pairs X-layer and Y-layer islands into 2D interaction points: deposits
// from one interaction split their light between the planes, so paired
// islands have correlated energies.
type Instrument struct {
	// X measures column positions; Y measures row positions.
	X, Y *Pipeline
}

// NewInstrument builds a station from one pipeline configuration, which must
// be in 1D mode (each layer is a 1D array).
func NewInstrument(cfg Config) (*Instrument, error) {
	if cfg.Detection.TwoDimension {
		return nil, fmt.Errorf("adapt: instrument layers must use 1D island detection")
	}
	x, err := New(cfg)
	if err != nil {
		return nil, err
	}
	y, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Instrument{X: x, Y: y}, nil
}

// Point2D is one reconstructed interaction.
type Point2D struct {
	// Row, Col are the reconstructed coordinates (Y- and X-layer centroids).
	Row, Col float64
	// EnergyX, EnergyY are the paired island energies.
	EnergyX, EnergyY int64
	// Balance is the energy symmetry min/max in (0,1]; well-matched pairs
	// sit near the plane-sharing ratio (~1), mispairings fall low.
	Balance float64
}

// StationEvent is the event builder's output for one trigger.
type StationEvent struct {
	Event uint32
	// Points are the paired interactions, brightest first.
	Points []Point2D
	// UnpairedX, UnpairedY count islands left without a partner.
	UnpairedX, UnpairedY int
}

// ProcessEvent runs both layers' packets through their pipelines and builds
// 2D points. Both packet sets must carry the same event id.
func (ins *Instrument) ProcessEvent(xPackets, yPackets []Packet) (*StationEvent, error) {
	xr, err := ins.X.ProcessEvent(xPackets)
	if err != nil {
		return nil, fmt.Errorf("adapt: X layer: %w", err)
	}
	yr, err := ins.Y.ProcessEvent(yPackets)
	if err != nil {
		return nil, fmt.Errorf("adapt: Y layer: %w", err)
	}
	if xr.Event != yr.Event {
		return nil, fmt.Errorf("adapt: layer event ids differ: %d vs %d", xr.Event, yr.Event)
	}
	ev := &StationEvent{Event: xr.Event}

	// Sort both layers' islands by energy, descending: the light-sharing
	// model makes energy rank the pairing key (§2's event building).
	xi := append([]design.Island1D(nil), xr.OneD.Islands...)
	yi := append([]design.Island1D(nil), yr.OneD.Islands...)
	sort.Slice(xi, func(i, j int) bool { return xi[i].Sum > xi[j].Sum })
	sort.Slice(yi, func(i, j int) bool { return yi[i].Sum > yi[j].Sum })
	pairs := min(len(xi), len(yi))
	for k := 0; k < pairs; k++ {
		balance := float64(min(xi[k].Sum, yi[k].Sum)) / float64(max(xi[k].Sum, yi[k].Sum))
		ev.Points = append(ev.Points, Point2D{
			Row:     yi[k].Centroid,
			Col:     xi[k].Centroid,
			EnergyX: xi[k].Sum,
			EnergyY: yi[k].Sum,
			Balance: balance,
		})
	}
	ev.UnpairedX = len(xi) - pairs
	ev.UnpairedY = len(yi) - pairs
	return ev, nil
}

// EventsPerSecond is the station rate: both layer pipelines run in parallel,
// so the station sustains the single-layer rate.
func (ins *Instrument) EventsPerSecond() float64 {
	x := ins.X.EventsPerSecond()
	y := ins.Y.EventsPerSecond()
	return math.Min(x, y)
}
