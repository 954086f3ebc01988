package adapt

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Front-end simulation: given true photo-electron counts per channel, build
// the digitizer packets the FPGA pipeline would actually receive. This is
// the substitution for real detector electronics (DESIGN.md §2): waveform
// shapes, pedestals, noise, and ADC quantization all exercise the pipeline's
// packet handling and calibration paths.

// showerModelMaxPixels is the largest frame GenerateTruth gives the
// single-shower traffic model: one 128×128 camera.
const showerModelMaxPixels = 128 * 128

// GenerateTruth builds one synthetic event's true photo-electron image for
// cfg's channel array. 1D configs get a tracker event; camera-scale 2D
// frames get the CTA shower model; frames past showerModelMaxPixels get a
// field of random blobs at ~2% occupancy — one shower in a megapixel frame
// would light a few hundred pixels and measure nothing but dark-channel
// overhead.
func GenerateTruth(cfg Config, rng *detector.RNG) []grid.Value {
	channels := cfg.ASICs * ChannelsPerASIC
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
	tracker.Threshold = 0 // the pipeline applies its own suppression
	return tracker.Event(rng).Values
}

// GenerateEvent digitizes a flat photo-electron image into one packet per
// ASIC. The image length must not exceed asics×16 channels; missing channels
// read pedestal only. The pulse onset sits a quarter of the way into the
// readout window (capped at sample 4, the full-window position), so short
// windows still capture the charge.
func GenerateEvent(pe []grid.Value, asics int, event uint32, timestamp uint64,
	dig detector.DigitizerConfig, rng *detector.RNG) ([]Packet, error) {
	if asics < 1 {
		return nil, fmt.Errorf("adapt: need at least one ASIC")
	}
	if asics > MaxASICs {
		return nil, fmt.Errorf("adapt: %d ASICs exceed the %d the wire index addresses", asics, MaxASICs)
	}
	if len(pe) > asics*ChannelsPerASIC {
		return nil, fmt.Errorf("adapt: %d channels exceed %d ASICs × 16", len(pe), asics)
	}
	if dig.Samples < 1 || dig.Samples > 255 {
		return nil, fmt.Errorf("adapt: digitizer window %d outside 1..255", dig.Samples)
	}
	t0 := float64(dig.Samples) / 4
	if t0 > 4 {
		t0 = 4
	}
	packets := make([]Packet, asics)
	for a := 0; a < asics; a++ {
		pkt := &packets[a]
		pkt.Header = Header{
			Magic:             PacketMagic,
			ASIC:              uint8(a),
			Flags:             uint8(a >> 8),
			Event:             event,
			Timestamp:         timestamp,
			SamplesPerChannel: uint8(dig.Samples),
		}
		// One contiguous channel-major backing array per packet, the layout
		// Unmarshal produces.
		n := dig.Samples
		samples := make([]int32, ChannelsPerASIC*n)
		for ch := 0; ch < ChannelsPerASIC; ch++ {
			flat := a*ChannelsPerASIC + ch
			var count float64
			if flat < len(pe) {
				count = float64(pe[flat])
			}
			pkt.Samples[ch] = samples[ch*n : (ch+1)*n : (ch+1)*n]
			dig.DigitizeInto(pkt.Samples[ch], count, t0, rng)
		}
	}
	return packets, nil
}

// GeneratePedestalEvents builds light-free calibration events.
func GeneratePedestalEvents(n, asics int, dig detector.DigitizerConfig, rng *detector.RNG) ([][]Packet, error) {
	events := make([][]Packet, n)
	for i := range events {
		ev, err := pedestalEvent(i, asics, dig, rng)
		if err != nil {
			return nil, err
		}
		events[i] = ev
	}
	return events, nil
}

func pedestalEvent(i, asics int, dig detector.DigitizerConfig, rng *detector.RNG) ([]Packet, error) {
	return GenerateEvent(nil, asics, uint32(i), uint64(i)*1000, dig, rng)
}

// MeasurePedestals is the calibration pass over n light-free events without
// holding them: each event is generated, added into a per-channel running sum
// and dropped, so the cost in memory is one event however many are averaged
// (a 512×512 frame is 16,384 packets). The events are GeneratePedestalEvents'
// — same draws from rng in the same order — and the result is the table
// Calibrate derives from them, ready for Pipeline.SetPedestals.
func MeasurePedestals(n, asics int, dig detector.DigitizerConfig, rng *detector.RNG) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("adapt: calibration needs at least one event")
	}
	var sums []int64
	for i := 0; i < n; i++ {
		ev, err := pedestalEvent(i, asics, dig, rng)
		if err != nil {
			return nil, err
		}
		if sums == nil {
			sums = make([]int64, len(ev)*ChannelsPerASIC)
		}
		addIntegrals(sums, ev)
	}
	return meanOf(sums, n), nil
}

// addIntegrals adds each packet's channel integrals into the flat per-channel
// sums; the packets' ASIC indices must lie inside sums.
func addIntegrals(sums []int64, packets []Packet) {
	for i := range packets {
		base := packets[i].ASICIndex() * ChannelsPerASIC
		for ch, v := range packets[i].Integrals() {
			sums[base+ch] += v
		}
	}
}

func meanOf(sums []int64, n int) []int64 {
	for i := range sums {
		sums[i] /= int64(n)
	}
	return sums
}
