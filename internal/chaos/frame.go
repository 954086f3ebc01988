package chaos

import "github.com/wustl-adapt/hepccl/internal/detector"

// FrameFault identifies one frame-granular fault kind.
type FrameFault int

// Frame-granular fault kinds. FaultBitFlip, FaultTruncate, and FaultDrop are
// "clean kills": on a self-framing checksummed stream each destroys exactly
// the frame's own event and nothing downstream, which is what lets a soak
// test balance its books event-for-event. FaultDuplicate and FaultInsert
// stress the consumer in messier ways (duplicate ASIC rejection, resync
// hunting) and are accounted separately.
const (
	FaultNone FrameFault = iota
	// FaultBitFlip inverts one random bit anywhere in the frame. Always
	// detected by the additive frame checksum (a single flip changes the
	// folded sum), so the frame is dropped by the parser, never mis-parsed.
	FaultBitFlip
	// FaultTruncate cuts the frame after a random prefix — a link dropping
	// mid-frame.
	FaultTruncate
	// FaultDrop deletes the frame entirely — a readout FIFO overrun.
	FaultDrop
	// FaultDuplicate emits the frame twice — a retransmitting link layer.
	FaultDuplicate
	// FaultInsert emits random garbage bytes before the frame — line noise.
	FaultInsert
)

// FrameConfig sets per-frame fault probabilities. The probabilities are
// tried in declaration order and at most one fault fires per frame, so the
// per-frame fault distribution is exact and accountable.
type FrameConfig struct {
	Seed      uint64
	BitFlip   float64
	Truncate  float64
	Drop      float64
	Duplicate float64
	Insert    float64
}

// FrameInjector applies at most one fault to each frame it is offered. Not
// safe for concurrent use.
type FrameInjector struct {
	cfg FrameConfig
	rng *detector.RNG
	buf []byte
}

// NewFrameInjector returns an injector rolling with cfg's probabilities.
func NewFrameInjector(cfg FrameConfig) *FrameInjector {
	return &FrameInjector{cfg: cfg, rng: detector.NewRNG(cfg.Seed)}
}

// roll picks the fault for the next frame.
func (fi *FrameInjector) roll() FrameFault {
	c := &fi.cfg
	for _, t := range []struct {
		p float64
		f FrameFault
	}{
		{c.BitFlip, FaultBitFlip},
		{c.Truncate, FaultTruncate},
		{c.Drop, FaultDrop},
		{c.Duplicate, FaultDuplicate},
		{c.Insert, FaultInsert},
	} {
		if t.p > 0 && fi.rng.Float64() < t.p {
			return t.f
		}
	}
	return FaultNone
}

// Mutate rolls a fault for frame and returns the byte chunks to transmit in
// its place, plus the fault applied. The returned slices may alias frame and
// the injector's scratch buffer; they are valid until the next Mutate call.
// A nil result means the frame was dropped.
func (fi *FrameInjector) Mutate(frame []byte) ([][]byte, FrameFault) {
	f := fi.roll()
	switch f {
	case FaultBitFlip:
		fi.buf = append(fi.buf[:0], frame...)
		if len(fi.buf) > 0 {
			i := fi.rng.Intn(len(fi.buf))
			fi.buf[i] ^= 1 << (fi.rng.Uint64() & 7)
		}
		return [][]byte{fi.buf}, f
	case FaultTruncate:
		if len(frame) < 2 {
			return nil, f
		}
		return [][]byte{frame[:1+fi.rng.Intn(len(frame)-1)]}, f
	case FaultDrop:
		return nil, f
	case FaultDuplicate:
		return [][]byte{frame, frame}, f
	case FaultInsert:
		fi.buf = fi.buf[:0]
		for n := 1 + fi.rng.Intn(16); n > 0; n-- {
			fi.buf = append(fi.buf, byte(fi.rng.Uint64()))
		}
		return [][]byte{fi.buf, frame}, f
	default:
		return [][]byte{frame}, FaultNone
	}
}
