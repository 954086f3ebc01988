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
		ev, err := GenerateEvent(nil, asics, uint32(i), uint64(i)*1000, dig, rng)
		if err != nil {
			return nil, err
		}
		events[i] = ev
	}
	return events, nil
}
