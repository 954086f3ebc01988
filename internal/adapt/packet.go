// Package adapt implements the ADAPT prototype FPGA data-processing pipeline
// of Fig 3 as a functional simulation: ALPHA digitizer packet handling,
// pedestal subtraction, photon counting, zero-suppression, the Merge module
// that fuses 16-channel ASIC streams into one event-wide array, and the
// island detection + centroiding back end with the TWO_DIMENSION compile-time
// switch from §5.1. It is the substrate the paper's contribution plugs into.
package adapt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ChannelsPerASIC is the channel count of one ALPHA waveform digitizer ASIC
// (§4.1: "multiple 16-channel digitizer ASICs").
const ChannelsPerASIC = 16

// PacketMagic marks the start of a digitizer packet.
const PacketMagic uint16 = 0xA1FA

// Header is the fixed preamble of one digitizer packet.
type Header struct {
	// Magic must equal PacketMagic.
	Magic uint16
	// ASIC is the low byte of the source digitizer index within the event.
	ASIC uint8
	// Flags is the high byte of the digitizer index. Historically this byte
	// carried readout status bits with 0 = nominal, and every configuration
	// of at most 256 ASICs still writes 0 here — those wire frames are
	// bit-identical to the original format. Megapixel frame geometries need
	// more digitizers than one byte can address (a 512×512 frame is 16384
	// 16-channel ASICs), so the otherwise-unused byte extends the index:
	// ASICIndex() = Flags<<8 | ASIC, addressing up to 65536 ASICs.
	Flags uint8
	// Event is the trigger sequence number.
	Event uint32
	// Timestamp is the trigger time in clock ticks.
	Timestamp uint64
	// SamplesPerChannel is the waveform window length.
	SamplesPerChannel uint8
}

// Packet is one triggered readout of a 16-channel digitizer: a header plus
// SamplesPerChannel ADC samples for each channel.
type Packet struct {
	Header
	// block is Unmarshal's decode target: the contiguous channel-major
	// backing array of Samples (len 16×SamplesPerChannel, Samples[ch] aliases
	// block[ch·n:(ch+1)·n]), kept so a reused Packet decodes without
	// reallocating or re-carving its sixteen slice headers.
	block []int32
	// Samples is indexed [channel][sample]; every channel has
	// SamplesPerChannel samples.
	Samples [ChannelsPerASIC][]int32
}

// ASICIndex returns the packet's full digitizer index, combining the
// historical one-byte ASIC field with the Flags extension byte.
//
//hepccl:hotpath
func (h *Header) ASICIndex() int { return int(h.Flags)<<8 | int(h.ASIC) }

// MaxASICs is the largest digitizer count the two-byte wire index addresses.
const MaxASICs = 1 << 16

// headerBytes is the wire size of the header plus the trailing checksum.
const headerBytes = 2 + 1 + 1 + 4 + 8 + 1

// PacketHeaderBytes exports the frame header wire size for consumers that
// frame without decoding (the gateway's flush-boundary check: fewer buffered
// bytes than a header means no complete frame can be buffered either).
const PacketHeaderBytes = headerBytes

// ErrChecksumMismatch reports a frame whose trailing checksum does not match
// its contents. It is a shared sentinel (not formatted per failure) because a
// noisy link produces it at line rate and the stream reader only counts it.
var ErrChecksumMismatch = errors.New("adapt: checksum mismatch")

// WireSize returns the marshaled packet size in bytes.
func (p *Packet) WireSize() int {
	return headerBytes + 2*ChannelsPerASIC*int(p.SamplesPerChannel) + 2
}

// Marshal serializes the packet: big-endian header, then channel-major
// 16-bit samples, then a 16-bit additive checksum over everything before it.
func (p *Packet) Marshal() ([]byte, error) {
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		if len(p.Samples[ch]) != int(p.SamplesPerChannel) {
			return nil, fmt.Errorf("adapt: channel %d has %d samples, header says %d",
				ch, len(p.Samples[ch]), p.SamplesPerChannel)
		}
		for s, v := range p.Samples[ch] {
			if v < 0 || v > 0xFFFF {
				return nil, fmt.Errorf("adapt: channel %d sample %d = %d outside 16-bit ADC range", ch, s, v)
			}
		}
	}
	buf := make([]byte, 0, p.WireSize())
	buf = binary.BigEndian.AppendUint16(buf, PacketMagic)
	buf = append(buf, p.ASIC, p.Flags)
	buf = binary.BigEndian.AppendUint32(buf, p.Event)
	buf = binary.BigEndian.AppendUint64(buf, p.Timestamp)
	buf = append(buf, p.SamplesPerChannel)
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		for _, v := range p.Samples[ch] {
			buf = binary.BigEndian.AppendUint16(buf, uint16(v))
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, checksum(buf))
	return buf, nil
}

// Unmarshal parses and validates one packet, returning the bytes consumed.
//
//hepccl:hotpath
func (p *Packet) Unmarshal(data []byte) (int, error) {
	//hepccl:coldpath
	if len(data) < headerBytes {
		return 0, fmt.Errorf("adapt: truncated header (%d bytes)", len(data))
	}
	//hepccl:coldpath
	if m := binary.BigEndian.Uint16(data); m != PacketMagic {
		return 0, fmt.Errorf("adapt: bad magic %#04x", m)
	}
	p.Magic = PacketMagic
	p.ASIC = data[2]
	p.Flags = data[3]
	p.Event = binary.BigEndian.Uint32(data[4:])
	p.Timestamp = binary.BigEndian.Uint64(data[8:])
	p.SamplesPerChannel = data[16]
	total := p.WireSize()
	//hepccl:coldpath
	if len(data) < total {
		return 0, fmt.Errorf("adapt: truncated packet: have %d bytes, want %d", len(data), total)
	}
	n := int(p.SamplesPerChannel)
	// Decode into the packet's contiguous backing block, reusing its storage
	// when capacity allows. Callers that reuse a Packet across Unmarshal
	// calls must not retain the previous sample slices. When the block and
	// the sample slices already have this geometry (the steady state for
	// pooled packets), the 16 slice headers are left untouched.
	need := ChannelsPerASIC * n
	blk := p.block
	if len(blk) != need {
		//hepccl:amortized
		if cap(blk) < need {
			blk = make([]int32, need)
		}
		blk = blk[:need]
		p.block = blk
	}
	if need == 0 || len(p.Samples[0]) != n || &p.Samples[0][0] != &blk[0] {
		// Carve the block by shrinking from the front. The len(rest) >= n
		// leg is vacuous (len(blk) == ChannelsPerASIC*n) but turns the
		// per-channel window into a provable reslice, where the ch*n
		// product form keeps a bounds check per iteration.
		rest := blk
		for ch := 0; ch < ChannelsPerASIC && len(rest) >= n; ch++ {
			p.Samples[ch] = rest[:n:n]
			rest = rest[n:]
		}
	}
	// Checksum verification fuses into the decode so the frame is walked
	// once. The 17-byte header leaves the checksum's 16-bit word grid
	// straddling the sample words by one byte, but the sum is additive over
	// weighted bytes: relative to the grid each sample's high byte lands in
	// a low (×1) slot and its low byte in a high (×256) slot — including the
	// final padded byte — so the sample region contributes the plain sum of
	// its byte-swapped words, which is exactly the 16-bit lanes of a
	// little-endian load.
	sum := 256 * uint64(data[16])
	// Two-word unroll over the 16 header bytes: constant indices under the
	// entry length check, where the strided loop form retains a bounds check
	// per load.
	hw := data[:16]
	v0 := binary.BigEndian.Uint64(hw[:8])
	sum += v0>>48 + v0>>32&0xFFFF + v0>>16&0xFFFF + v0&0xFFFF
	v1 := binary.BigEndian.Uint64(hw[8:16])
	sum += v1>>48 + v1>>32&0xFFFF + v1>>16&0xFFFF + v1&0xFFFF
	// The wire layout is channel-major, matching the block layout exactly:
	// one linear pass decodes every channel. Lane accumulators hold one
	// 16-bit word sum per 32-bit half; at most 1020 additions per frame
	// (255-sample cap), they cannot carry across lanes.
	// The slice-advance loop shape (instead of indexed stores) lets the
	// compiler prove every access in range and drop the per-store bounds
	// checks, which otherwise dominate this loop.
	src := data[headerBytes : headerBytes+2*need]
	dst := blk
	const lanes = 0x0000FFFF0000FFFF
	var accLo, accHi uint64
	for len(src) >= 8 && len(dst) >= 4 { // four samples per 8-byte load
		le := binary.LittleEndian.Uint64(src)
		accLo += le & lanes
		accHi += le >> 16 & lanes
		be := bits.ReverseBytes64(le)
		dst[0] = int32(be >> 48)
		dst[1] = int32(be >> 32 & 0xFFFF)
		dst[2] = int32(be >> 16 & 0xFFFF)
		dst[3] = int32(be & 0xFFFF)
		src, dst = src[8:], dst[4:]
	}
	for len(src) >= 2 && len(dst) >= 1 { // unreachable (need is a multiple of 16); kept for safety
		w := binary.BigEndian.Uint16(src)
		sum += uint64(w>>8) + uint64(w&0xFF)<<8
		dst[0] = int32(w)
		src, dst = src[2:], dst[1:]
	}
	sum += accLo&0xFFFFFFFF + accLo>>32 + accHi&0xFFFFFFFF + accHi>>32
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	if want := binary.BigEndian.Uint16(data[total-2:]); uint16(sum) != want {
		// Static error: this is the hot failure mode on a noisy link, and the
		// stream reader discards it after counting the bad frame. The block
		// holds the rejected frame's samples at this point; callers treat the
		// packet as scratch until Unmarshal succeeds.
		return 0, ErrChecksumMismatch
	}
	return total, nil
}

// PatchFrameEventID rewrites the event-id field of a marshaled frame in
// place and refolds the trailing checksum, so load generators can reuse one
// serialized event instead of re-marshaling per event id.
func PatchFrameEventID(frame []byte, event uint32) error {
	if len(frame) < headerBytes+2 {
		return fmt.Errorf("adapt: frame too short to patch (%d bytes)", len(frame))
	}
	binary.BigEndian.PutUint32(frame[4:], event)
	binary.BigEndian.PutUint16(frame[len(frame)-2:], checksum(frame[:len(frame)-2]))
	return nil
}

// checksum is a 16-bit additive checksum (ones'-complement style sum of
// 16-bit words, with a trailing odd byte zero-padded).
func checksum(data []byte) uint16 {
	sum := wordSum(data)
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return uint16(sum)
}

// wordSum is the unfolded word sum behind checksum. It is exposed separately
// so FramePatcher can do incremental updates in the same arithmetic: the sum
// is linear, so any caller that knows the old contribution of a field can
// subtract it and add the replacement without re-reading the buffer. The hot
// loop folds eight bytes per iteration; a uint64 accumulator cannot overflow
// below 2^48 input words.
func wordSum(data []byte) uint64 {
	var sum, sum2 uint64
	i := 0
	for ; i+16 <= len(data); i += 16 { // two independent accumulators
		v := binary.BigEndian.Uint64(data[i:])
		w := binary.BigEndian.Uint64(data[i+8:])
		sum += v>>48 + v>>32&0xFFFF + v>>16&0xFFFF + v&0xFFFF
		sum2 += w>>48 + w>>32&0xFFFF + w>>16&0xFFFF + w&0xFFFF
	}
	sum += sum2
	for ; i+8 <= len(data); i += 8 {
		v := binary.BigEndian.Uint64(data[i:])
		sum += v>>48 + v>>32&0xFFFF + v>>16&0xFFFF + v&0xFFFF
	}
	for ; i+1 < len(data); i += 2 {
		sum += uint64(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	return sum
}

// FramePatcher caches a marshaled frame's checksum base — the word sum of
// everything except the event-id field — so repeated event-id rewrites cost a
// handful of adds instead of a full checksum refold over the frame. The
// event-id bytes sit at offsets 4..7, aligned to the checksum's 16-bit word
// grid, so their contribution is exactly the two halves of the id.
type FramePatcher struct {
	base uint64
}

// NewFramePatcher captures the patch base of a marshaled frame. The patcher
// stays valid as long as every byte of the frame outside the event-id and
// checksum fields is unchanged.
func NewFramePatcher(frame []byte) (FramePatcher, error) {
	if len(frame) < headerBytes+2 {
		return FramePatcher{}, fmt.Errorf("adapt: frame too short to patch (%d bytes)", len(frame))
	}
	sum := wordSum(frame[:len(frame)-2])
	sum -= uint64(binary.BigEndian.Uint16(frame[4:]))
	sum -= uint64(binary.BigEndian.Uint16(frame[6:]))
	return FramePatcher{base: sum}, nil
}

// SetEventID rewrites the frame's event id and trailing checksum in place.
// The result is bit-identical to PatchFrameEventID: the word sum is rebuilt
// from the cached base plus the new id's halves, then folded the same way.
func (fp FramePatcher) SetEventID(frame []byte, event uint32) {
	binary.BigEndian.PutUint32(frame[4:], event)
	sum := fp.base + uint64(event>>16) + uint64(event&0xFFFF)
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(frame[len(frame)-2:], uint16(sum))
}

// Integrals sums each channel's waveform — the per-channel waveform
// integration stage.
func (p *Packet) Integrals() [ChannelsPerASIC]int64 {
	var out [ChannelsPerASIC]int64
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		var s int64
		for _, v := range p.Samples[ch] {
			s += int64(v)
		}
		out[ch] = s
	}
	return out
}
