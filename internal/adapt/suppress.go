package adapt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Zero-suppression at ingest. The paper's pipeline suppresses before anything
// is buffered (packets → pedestal → integrate → zero-suppress → merge →
// islands); the serving stack does the same: the stream reader turns wire
// frames straight into a lit list — the few channels whose raw integral
// reaches their suppression limit — and everything downstream (the ingest
// ring, the labeling sinks) works from that list. A decoded Packet exists
// only on the reference route and in the cycle-accurate pipeline.

// Lit is one above-threshold channel of a zero-suppressed event: the flat
// channel index in the high 32 bits and, in the low 32, the excess of the raw
// waveform integral over the channel's suppression limit (raw − limit ≥ 0,
// which is what makes it lit). Packed so the wire scan's compaction is one
// store and a lit list sorts as plain integers. Integrals of wire samples are
// below 2^24 (255 samples of 16 bits) and limits are at least −2^30 (New
// refuses lower ones), so the excess is below 2^31, inside the field.
// Because limit = cutoff + pedestal, excess + cutoff is the pedestal-
// subtracted integral: serving needs no pedestal table.
type Lit uint64

func mkLit(channel int, excess int64) Lit { return Lit(uint64(channel)<<32 | uint64(uint32(excess))) }

// Channel returns the flat channel index.
func (l Lit) Channel() int { return int(l >> 32) }

// Excess returns the channel's raw integral minus its suppression limit.
func (l Lit) Excess() int64 { return int64(uint32(l)) }

// LitEvent is one zero-suppressed event: the trigger id and its lit channels
// in ascending flat-channel order, which is raster order.
type LitEvent struct {
	Event uint32
	Lit   []Lit
	// Bad is non-nil when the event's frames assembled but do not form a
	// valid event (unknown or duplicate ASIC, wrong sample count) — the
	// verdict ServeEvent returns for the same packets. A bad event carries no
	// lit channels and must be counted, not served.
	Bad error
}

// Suppressor is the immutable part of a calibrated pipeline that turning
// frames into lit lists needs: the event geometry and the per-channel
// suppression limits. Calibrate builds a fresh one instead of mutating, so
// any number of reader goroutines may share one read-only.
type Suppressor struct {
	asics int
	spc   int
	// limits[fl] = cutoff + pedestal folds the pedestal subtraction and the
	// ADC-domain threshold (pe > T ⇔ net ≥ (T+1)·g − g/2) into one compare
	// against the raw integral.
	limits []int64
	// lim32 is limits clamped into [minLimit, 1<<24] for the wire scan,
	// present when the sample count is a multiple of four (a channel is then
	// a whole number of 8-byte words). A wire integral is below 1<<24, so a
	// limit beyond reach clamps to 1<<24 (never lit), newSuppressor refuses
	// any below minLimit, and the lit compare becomes the sign bit of a 32-bit
	// subtraction whose value, for a lit channel, is the exact excess.
	lim32 []uint32
}

// minLimit is the lowest suppression limit a Suppressor accepts: the excess
// of a wire integral (< 2^24) over it stays below 2^31, so it fits a Lit and
// the 32-bit lit compare cannot wrap.
const minLimit = -1 << 30

func newSuppressor(asics, spc int, cutoff int64, pedestals []int64) (*Suppressor, error) {
	s := &Suppressor{asics: asics, spc: spc, limits: make([]int64, len(pedestals))}
	for i, ped := range pedestals {
		if s.limits[i] = cutoff + ped; s.limits[i] < minLimit {
			return nil, fmt.Errorf("adapt: channel %d: suppression limit %d (cutoff %d + pedestal %d) is below %d",
				i, s.limits[i], cutoff, ped, minLimit)
		}
	}
	if spc%4 == 0 {
		s.lim32 = make([]uint32, len(pedestals))
		for i, l := range s.limits {
			s.lim32[i] = uint32(min(l, 1<<24))
		}
	}
	return s, nil
}

// useAVX2 selects the window kernel under scan's one-word route. It is set
// once, here, from what the CPU and OS report — there is no flag, environment
// variable or build tag to choose it — and only the differential tests ever
// flip it, to run the portable loop on a host that has the kernel.
var useAVX2 = detectAVX2()

// ScanKernel names the implementation the suppress pass runs on this host:
// "avx2" when the window kernel was selected, "portable" for the Go loops.
func ScanKernel() string { return kernelName(useAVX2) }

func kernelName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "portable"
}

// scan is the suppress pass: it walks whole frames at the front of win that
// continue the event in progress verbatim — frame i carries ASIC i, the
// event's id and the configured sample count, and its checksum holds — and
// per frame, in one pass over the wire bytes, sums each channel's samples,
// folds the checksum from those sums, and writes the channels that reach their
// limit to out[n:] as (flat channel, excess over the limit) in raster order.
// i is the next ASIC position, event the trigger id (of the window's first
// frame when i is 0). It stops at the first frame it cannot take — window
// exhausted, any header field off, checksum bad — leaving that frame for the
// caller's general path, and returns the bytes walked with the advanced i and
// n. A frame whose checksum fails contributes nothing: its lit entries are
// rewound.
//
// Compaction is branch-free: every channel is stored at out[n] and n advances
// by the compare's sign bit, so a dense event costs what a dark one does. out
// must hold one slot beyond the event's channel count for the final store.
//
// Where useAVX2 holds, the one-word route (four samples per channel, the
// daemon's default) first hands the whole window to scanFramesAVX2, which
// takes every frame the loop below would and appends lit channels only after
// a frame's checksum holds; the loop then resumes at the frame the kernel
// stopped at, which on a clean window is past the end of the window or the
// event. The Go loops are both the fallback and the reference the kernel is
// tested against.
//
//hepccl:hotpath
func (s *Suppressor) scan(win []byte, i int, event uint32, out []Lit, n int) (int, int, int) {
	const lanes = 0x0000FFFF0000FFFF
	words := s.spc / 4 // 8-byte words per channel
	total := headerBytes + 2*ChannelsPerASIC*s.spc + 2
	off := 0
	if words < 1 || total < headerBytes+2 {
		// Unreachable (lim32 exists only for a positive multiple of four);
		// stated so the frame offsets below are provably in range.
		return 0, i, n
	}
	// lims walks the limit table a frame at a time from ASIC i on, shrinking
	// with the window, so each frame's sixteen limits are carved in range by
	// construction of the loop condition.
	var lims []uint32
	if i < s.asics {
		lims = s.lim32[i*ChannelsPerASIC:]
	}
	if useAVX2 && s.spc == 4 {
		// Header bytes 0–7 little-endian: the magic's two bytes, the ASIC
		// index (low byte first, so +1<<16 per frame carries into the high
		// byte), the big-endian event id.
		want := uint64(bits.ReverseBytes16(PacketMagic)) | uint64(i)<<16 | uint64(bits.ReverseBytes32(event))<<32
		k, nn := scanFramesAVX2(win, lims, want, uint64(i*ChannelsPerASIC)<<32, out, n)
		off, i, n = k*total, i+k, nn
		win, lims = win[off:], lims[k*ChannelsPerASIC:]
	}
	for i < s.asics && len(win) >= total && len(lims) >= ChannelsPerASIC {
		// Magic, ASIC position and event id are the frame's first eight
		// bytes: one compare checks all three.
		w0 := binary.BigEndian.Uint64(win)
		want := uint64(PacketMagic)<<48 | uint64(i&0xFF)<<40 | uint64(i>>8)<<32 | uint64(event)
		if w0 != want || int(win[headerBytes-1]) != s.spc {
			break
		}
		// src runs through the trailing checksum; the channel loops below
		// stop with the limit slice, leaving exactly those two bytes.
		src := win[headerBytes:total]
		lim := lims[:ChannelsPerASIC]
		fl := uint64(i*ChannelsPerASIC) << 32
		n0 := n
		// tot accumulates every sample of the frame, two 16-bit samples per
		// 32-bit half (at most 2·0xFFFF per word over 16·63 words: no carry).
		var tot uint64
		if words == 1 {
			// One word is one channel. Four channels per step: their dark
			// checks AND into one predictable branch that skips the stores
			// where nothing is lit — the common case on sparse events.
			for len(src) >= 32 && len(lim) >= 4 {
				b0 := binary.BigEndian.Uint64(src)
				b1 := binary.BigEndian.Uint64(src[8:])
				b2 := binary.BigEndian.Uint64(src[16:])
				b3 := binary.BigEndian.Uint64(src[24:])
				s0 := b0&lanes + b0>>16&lanes
				s1 := b1&lanes + b1>>16&lanes
				s2 := b2&lanes + b2>>16&lanes
				s3 := b3&lanes + b3>>16&lanes
				tot += s0 + s1 + s2 + s3
				r0 := uint32(s0) + uint32(s0>>32)
				r1 := uint32(s1) + uint32(s1>>32)
				r2 := uint32(s2) + uint32(s2>>32)
				r3 := uint32(s3) + uint32(s3>>32)
				d0 := r0 - lim[0]
				d1 := r1 - lim[1]
				d2 := r2 - lim[2]
				d3 := r3 - lim[3]
				if int32(d0&d1&d2&d3) >= 0 {
					// n never exceeds the channels scanned so far and out
					// holds one slot more than the event has channels, so
					// these four channels' slots follow n.
					//hepccl:checked
					o := out[n:][:4]
					// j counts this group's lit channels before the store:
					// j ≤ 3, so the mask only proves it.
					o[0] = Lit(fl | uint64(d0))
					j := int(^d0 >> 31)
					o[j&3] = Lit(fl + 1<<32 | uint64(d1))
					j += int(^d1 >> 31)
					o[j&3] = Lit(fl + 2<<32 | uint64(d2))
					j += int(^d2 >> 31)
					o[j&3] = Lit(fl + 3<<32 | uint64(d3))
					n += j + int(^d3>>31)
				}
				fl += 4 << 32
				src, lim = src[32:], lim[4:]
			}
		} else {
			// One flat shrink-walk over the frame's words — constant-index
			// loads under the length guard — closing a channel every
			// `words` of them.
			var lane uint64
			left := words
			for len(src) >= 8 && len(lim) >= 1 {
				be := binary.BigEndian.Uint64(src)
				lane += be&lanes + be>>16&lanes
				src = src[8:]
				if left--; left > 0 {
					continue
				}
				tot += lane
				raw := uint32(lane) + uint32(lane>>32)
				d := raw - lim[0]
				// Same out sizing argument as the one-word route.
				//hepccl:checked
				out[n] = Lit(fl | uint64(d))
				n += int(^d >> 31)
				fl += 1 << 32
				lim = lim[1:]
				lane, left = 0, words
			}
		}
		// The frame checksum without a second accumulator. The 17-byte
		// header leaves each big-endian sample w straddling the checksum's
		// 16-bit word grid, so it contributes its byte-swapped value
		// hi + 256·lo (Unmarshal's derivation). But 256·w = 65536·hi +
		// 256·lo exceeds that by 65535·hi, and the end-around fold below
		// maps every positive sum to its residue mod 65535 (in 1..65535):
		// folding header + 256·Σw gives exactly the checksum Unmarshal
		// folds from header + Σswap(w) — and Σw is the sum of the channel
		// integrals this loop computed anyway. Both sums are positive (the
		// magic word alone is), so the zero case never separates them.
		w1 := binary.BigEndian.Uint64(win[8:])
		sum := 256*uint64(s.spc) +
			w0>>48 + w0>>32&0xFFFF + w0>>16&0xFFFF + w0&0xFFFF +
			w1>>48 + w1>>32&0xFFFF + w1>>16&0xFFFF + w1&0xFFFF +
			(tot&0xFFFFFFFF+tot>>32)<<8
		for sum > 0xFFFF {
			sum = sum&0xFFFF + sum>>16
		}
		if len(src) < 2 || uint16(sum) != binary.BigEndian.Uint16(src) {
			n = n0
			break
		}
		win, lims = win[total:], lims[ChannelsPerASIC:]
		off += total
		i++
	}
	return off, i, n
}

// checkPacket validates one packet against the event being assembled: a known
// ASIC not seen before (seen holds one bit per ASIC), the event's id and the
// configured sample count. It is the per-packet step of checkEvent, shared
// with the stream reader's reference route.
//
//hepccl:coldpath
func (s *Suppressor) checkPacket(seen []uint64, event uint32, pkt *Packet) error {
	asic := pkt.ASICIndex()
	if asic >= s.asics {
		return fmt.Errorf("packet from unknown ASIC %d", asic)
	}
	if seen[asic>>6]&(1<<uint(asic&63)) != 0 {
		return fmt.Errorf("duplicate packet from ASIC %d", asic)
	}
	seen[asic>>6] |= 1 << uint(asic&63)
	if pkt.Event != event {
		return fmt.Errorf("event id mismatch: ASIC %d has %d, want %d", pkt.ASIC, pkt.Event, event)
	}
	if int(pkt.SamplesPerChannel) != s.spc {
		return fmt.Errorf("ASIC %d has %d samples/channel, want %d",
			pkt.ASIC, pkt.SamplesPerChannel, s.spc)
	}
	return nil
}

// integratePacket is the reference integrate + zero-suppress step: it sums
// each channel's decoded samples and appends the channels that reach their
// limit to lit, with their excess over it, in channel order. The packet must
// have passed checkPacket.
//
//hepccl:coldpath
func (s *Suppressor) integratePacket(pkt *Packet, lit []Lit) []Lit {
	base := pkt.ASICIndex() * ChannelsPerASIC
	for ch, lim := range s.limits[base : base+ChannelsPerASIC] {
		var raw int64
		for _, v := range pkt.Samples[ch] {
			raw += int64(v)
		}
		if raw >= lim {
			lit = append(lit, mkLit(base+ch, raw-lim))
		}
	}
	return lit
}
