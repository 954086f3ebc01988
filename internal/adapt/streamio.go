package adapt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// Packet stream I/O: the serialized form in which digitizer packets travel
// over the readout link and are archived to disk. Packets are self-framing
// (magic word + header-derived length + checksum), so the reader can
// resynchronize after corrupted or truncated packets — the behaviour the
// FPGA's packet-handling stage needs on a real link.

// StreamWriter serializes packets back-to-back onto an io.Writer.
type StreamWriter struct {
	w io.Writer
	// Packets counts successfully written packets.
	Packets int
}

// NewStreamWriter returns a writer over w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// WritePacket marshals and writes one packet.
func (sw *StreamWriter) WritePacket(p *Packet) error {
	buf, err := p.Marshal()
	if err != nil {
		return err
	}
	if _, err := sw.w.Write(buf); err != nil {
		return err
	}
	sw.Packets++
	return nil
}

// WriteEvent writes all packets of one event in ASIC order.
func (sw *StreamWriter) WriteEvent(packets []Packet) error {
	for i := range packets {
		if err := sw.WritePacket(&packets[i]); err != nil {
			return fmt.Errorf("adapt: event packet %d: %w", i, err)
		}
	}
	return nil
}

// StreamReader parses a packet stream, skipping garbage between packets.
//
// Decoding is zero-copy: candidate frames are validated and parsed in place
// inside the buffered read window (the largest frame, 255 samples/channel, is
// 8179 bytes — well under the 64 KiB window), so no frame is ever staged
// through an intermediate buffer, and resynchronization after a corrupted
// frame consumes two bytes instead of copying the frame into a push-back
// queue. The hunt for the frame magic scans the window a word at a time.
//
// End-of-stream vs transport faults: every read returns io.EOF only when the
// underlying reader reports a clean end of stream (possibly after skipping
// trailing garbage or a truncated final frame). Any other underlying error —
// a socket reset, a read deadline, an injected fault — is returned wrapped,
// so network servers can tell a closed connection from a failed one.
type StreamReader struct {
	r *bufio.Reader
	// scratch is the reader's one decoded packet: SkimEvent verifies an
	// event's first frame into it and ReadSuppressed decodes reference-route
	// frames into it.
	scratch Packet
	// lit is ReadSuppressed's compaction target, one slot more than an event
	// has channels; seen is its reference route's duplicate-ASIC bitmap.
	lit  []Lit
	seen []uint64
	// SkippedBytes counts bytes discarded while searching for a valid
	// packet (link noise, corrupted frames).
	SkippedBytes int
	// BadPackets counts frames that had a magic word but failed validation.
	BadPackets int
	// ReferenceEvents counts events ReadSuppressed assembled with at least
	// one frame off the wire scan (out of ASIC order, a sample count that is
	// not a multiple of four): how often the cold route fires.
	ReferenceEvents int
	// BadPacketBudget, when positive, bounds how many corrupted frames one
	// packet read will hunt past before returning ErrResyncStorm. Zero
	// hunts until a valid packet or end of stream. The error is recoverable
	// — a later call resumes the hunt — but it returns control to the
	// caller, which a pure-garbage link would otherwise never do.
	BadPacketBudget int
	// capturing, when set, makes each event assembly also accumulate the raw
	// wire bytes of its accepted frames in capture, so a recorder can append
	// exactly what was admitted without a second decode pass. Skipped garbage
	// and corrupted frames are never captured.
	capturing bool
	capture   []byte
}

// streamBufSize is the read window. It must exceed the largest possible
// frame so a whole candidate frame can always be peeked in place.
const streamBufSize = 64 << 10

// NewStreamReader returns a reader over r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: bufio.NewReaderSize(r, streamBufSize)}
}

// Reset discards all buffered state, zeroes the counters, and switches the
// reader to r, retaining the internal buffer.
func (sr *StreamReader) Reset(r io.Reader) {
	sr.r.Reset(r)
	sr.SkippedBytes = 0
	sr.BadPackets = 0
	sr.ReferenceEvents = 0
	sr.capture = sr.capture[:0]
}

// SetCapture toggles raw-frame capture. While on, every successful
// ReadEventInto, ReadSuppressed or SkimEvent leaves the event's exact wire
// bytes in Captured.
func (sr *StreamReader) SetCapture(on bool) { sr.capturing = on }

// Captured returns the raw wire bytes of the frames accepted by the last
// successful event assembly, in stream order. The slice is reused by the next
// assembly; copy it to retain it.
func (sr *StreamReader) Captured() []byte { return sr.capture }

// Buffered reports how many unconsumed bytes sit in the read window. A
// forwarder uses it as its flush boundary: with less than a frame header
// buffered, the next read blocks on the socket, so staged output goes first.
//
//hepccl:hotpath
func (sr *StreamReader) Buffered() int { return sr.r.Buffered() }

// wrapErr passes io.EOF through untouched and wraps everything else.
//
//hepccl:coldpath
func wrapErr(err error) error {
	if err == io.EOF {
		return io.EOF
	}
	return fmt.Errorf("adapt: stream read: %w", err)
}

const (
	magicHi = byte(PacketMagic >> 8)   // 0xA1, first byte on the wire
	magicLo = byte(PacketMagic & 0xFF) // 0xFA, second byte on the wire
)

// scanMagic returns the index of the first magic pair in buf, or -1. The hot
// loop tests eight bytes per iteration: a SWAR zero-byte detect on buf^0xA1…
// marks candidate high bytes, and only candidates pay the pair check. The
// loop walks by shrinking the slice head — constant-index loads the compiler
// proves in range without induction, which early returns would break.
//
//hepccl:hotpath
func scanMagic(buf []byte) int {
	const (
		lanes = 0x0101010101010101
		highs = 0x8080808080808080
		hiRep = 0xA1A1A1A1A1A1A1A1
	)
	base := 0
	b := buf
	// len >= 9 keeps the pair byte in range for a candidate anywhere in the
	// word, including lane 7, whose partner is b[8].
	for len(b) >= 9 {
		w := binary.LittleEndian.Uint64(b[:8])
		x := w ^ hiRep
		m := (x - lanes) & ^x & highs
		for m != 0 {
			k := bits.TrailingZeros64(m) >> 3
			// The zero-byte detect over-approximates across borrow ripples
			// (a lane one above an exact match is falsely flagged), so
			// re-verify the candidate in-register before the pair test.
			if byte(w>>(uint(k)*8)) == magicHi {
				var next byte
				if k == 7 {
					next = b[8]
				} else {
					next = byte(w >> (uint(k+1) * 8))
				}
				if next == magicLo {
					return base + k
				}
			}
			m &= m - 1
		}
		b = b[8:]
		base += 8
	}
	if len(b) >= 2 {
		ta := b[:len(b)-1]
		tb := b[1:]
		for k, c := range ta {
			if c == magicHi && tb[k] == magicLo {
				return base + k
			}
		}
	}
	return -1
}

// drainAll consumes the rest of the stream, returning the byte count and any
// non-EOF error.
func (sr *StreamReader) drainAll() (int, error) {
	n := 0
	for {
		m, err := sr.r.Discard(32 << 10)
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// ReadPacketInto scans for the next valid packet and parses it into p,
// reusing p's sample storage. It returns io.EOF only at a clean end of
// stream; underlying transport errors are returned wrapped. The frame is validated and decoded directly
// from the read window — nothing is copied until the checksum passes, and a
// failed candidate costs a two-byte skip, not a frame copy. The parsed
// samples alias p's previous backing arrays; callers that retain packets
// across calls must use distinct Packet values.
func (sr *StreamReader) ReadPacketInto(p *Packet) error {
	return sr.readPacketInto(p, false, 0, noSkim)
}

// noSkim is readPacketInto's skimSpc for callers that verify every frame: no
// samples byte equals it.
const noSkim = -1

// readPacketInto implements ReadPacketInto. With haveEvent set the caller is
// assembling event: a valid frame carrying a different id interrupts the
// assembly — it is decoded into p (so the caller can name it) but left
// unconsumed in the window, errInterrupted is returned, and the next assembly
// starts from it. A caller skimming an event passes skimSpc, the sample count
// of that event's verified first frame: a frame whose header carries the
// event's id and that sample count is consumed on the header alone — no
// checksum, no decode, p untouched. Either way an accepted frame is captured
// when capture is on.
//
//hepccl:hotpath
func (sr *StreamReader) readPacketInto(p *Packet, haveEvent bool, event uint32, skimSpc int) error {
	bad := 0
	for {
		// Fast path: an in-sync stream has the next frame's magic already at
		// the front of the window, so peek the header directly — one bounds
		// check and two byte compares — and only fall into the hunt when the
		// stream is out of sync or ending.
		hdr, err := sr.r.Peek(headerBytes)
		// bufio.Peek returns err == nil only with all headerBytes present —
		// an I/O contract outside compiler range proofs.
		//hepccl:checked
		if err != nil || hdr[0] != magicHi || hdr[1] != magicLo {
			if len(hdr) >= 2 && hdr[0] == magicHi && hdr[1] == magicLo {
				// Aligned frame but the header itself is truncated.
				if err != io.EOF {
					return wrapErr(err)
				}
				// Truncated final frame: everything left is trailing garbage.
				n, derr := sr.drainAll()
				sr.SkippedBytes += n
				if derr != nil {
					return wrapErr(derr)
				}
				return io.EOF
			}
			if len(hdr) < 2 {
				if err == io.EOF {
					// A lone trailing byte is garbage no matter what it is.
					sr.SkippedBytes += len(hdr)
					sr.r.Discard(len(hdr))
					return io.EOF
				}
				return wrapErr(err)
			}
			// Out of sync: hunt over everything already buffered. scanMagic
			// cannot return 0 here (the window's first pair was just rejected),
			// so a hit always discards garbage before re-entering the fast path.
			win := hdr
			if n := sr.r.Buffered(); n > len(win) {
				win, _ = sr.r.Peek(n)
			}
			at := scanMagic(win)
			if at < 0 {
				// No pair in the window. Everything is garbage except a trailing
				// magic-high byte, which may pair with the next window's first.
				n := len(win)
				// n > 0 always holds (the window held a rejected pair); the
				// explicit guard is what lets the compiler drop the check.
				if n > 0 && win[n-1] == magicHi {
					n--
				}
				sr.SkippedBytes += n
				sr.r.Discard(n)
				continue
			}
			sr.SkippedBytes += at
			sr.r.Discard(at)
			continue
		}
		// The fast path reaches here only with err == nil, so Peek's
		// contract pins len(hdr) == headerBytes.
		//hepccl:checked
		samples := hdr[headerBytes-1]
		total := headerBytes + 2*ChannelsPerASIC*int(samples) + 2
		frame, err := sr.r.Peek(total)
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return wrapErr(err)
			}
			// Stream ended mid-frame: a truncated tail, not a fault.
			sr.SkippedBytes += len(frame)
			sr.r.Discard(len(frame))
			return io.EOF
		}
		// Peek succeeded, so len(frame) == total ≥ headerBytes.
		//hepccl:checked
		if int(samples) == skimSpc && binary.BigEndian.Uint32(frame[4:]) == event {
			// Skimmed frame: framing only — no checksum, no decode. The two
			// header fields the framing rests on are checked against the
			// event's verified first frame: the id ties the frame to this
			// event, and the sample count makes total the length that frame
			// proved. A frame that fails either is suspect and takes the
			// checksum below.
			if sr.capturing {
				//hepccl:amortized
				sr.capture = append(sr.capture, frame...)
			}
			sr.r.Discard(total)
			return nil
		}
		if _, uerr := p.Unmarshal(frame); uerr != nil {
			// Corrupted frame: count it, resume the hunt right after the
			// magic word so an embedded valid packet is still found. The
			// frame's bytes were never consumed, so resync is a 2-byte skip.
			sr.BadPackets++
			sr.r.Discard(2)
			sr.SkippedBytes += 2
			//hepccl:coldpath
			if bad++; sr.BadPacketBudget > 0 && bad >= sr.BadPacketBudget {
				return fmt.Errorf("%w: %d corrupted frames in one read", ErrResyncStorm, bad)
			}
			continue
		}
		if haveEvent && p.Event != event {
			return errInterrupted
		}
		if sr.capturing {
			// The window slice dies at Discard, so the copy happens here.
			//hepccl:amortized
			sr.capture = append(sr.capture, frame...)
		}
		sr.r.Discard(total)
		return nil
	}
}

// errInterrupted is readPacketInto's report that the next valid frame belongs
// to a different event than the one being assembled; assemblyErr turns it into
// the ErrIncompleteEvent callers see.
var errInterrupted = errors.New("adapt: assembly interrupted")

// assemblyErr wraps what stopped an assembly after got of asics packets into
// ErrIncompleteEvent. by is the interrupting frame's event id.
//
//hepccl:coldpath
func assemblyErr(err error, got, asics int, event, by uint32) error {
	switch {
	case errors.Is(err, errInterrupted):
		return fmt.Errorf("%w: event %d interrupted by packet from event %d",
			ErrIncompleteEvent, event, by)
	case err == io.EOF:
		return fmt.Errorf("%w: got %d of %d packets for event %d",
			ErrIncompleteEvent, got, asics, event)
	}
	return fmt.Errorf("%w: after %d of %d packets for event %d: %w",
		ErrIncompleteEvent, got, asics, event, err)
}

// ErrIncompleteEvent reports that an event could not be assembled because
// the stream ended or packets were missing.
var ErrIncompleteEvent = errors.New("adapt: incomplete event")

// ErrResyncStorm is returned when a read exhausts StreamReader.
// BadPacketBudget without finding a valid packet. The stream is still
// usable; the caller decides whether to keep hunting or cut the link.
var ErrResyncStorm = errors.New("adapt: resync storm")

// SkimEvent consumes the next event's packets with the same framing, resync,
// interruption and capture behaviour as ReadEventInto, but verifies only the
// event's first frame: every later frame is taken on its header alone — no
// checksum, no sample decode — provided the header carries the first frame's
// event id and sample count, the two fields that say whose frame it is and
// how long. A frame that fails either test is read like any suspect frame.
// Payload corruption in a later frame therefore goes uncounted, while
// corruption that would misframe the stream is caught by the checks above and
// recovered by the magic-hunt resync, so every wire event is still counted
// exactly once. A valid packet from a different event interrupts the skim and
// stays in the window for the next assembly. Returns the skimmed event id.
//
// It serves two callers that need framing but not samples. The daemon skims
// an event it has already condemned (derandomizer full under drop policy),
// with capture off — the hardware analogue is a full derandomizer FIFO, which
// never inspects the trigger it refuses. A forwarder or log validator skims
// with capture on and takes the event's verbatim wire bytes from Captured,
// leaving the payload check to whoever decodes it.
//
//hepccl:hotpath
func (sr *StreamReader) SkimEvent(asics int) (uint32, error) {
	//hepccl:coldpath
	if asics < 1 {
		return 0, fmt.Errorf("adapt: SkimEvent needs asics >= 1")
	}
	sr.capture = sr.capture[:0]
	if err := sr.readPacketInto(&sr.scratch, false, 0, noSkim); err != nil {
		return 0, err
	}
	event, samples := sr.scratch.Event, sr.scratch.SamplesPerChannel
	total := headerBytes + 2*ChannelsPerASIC*int(samples) + 2
	for i := 1; i < asics; {
		// Fast path: an in-sync stream has the event's remaining frames
		// back-to-back in the read window. Walk as many contiguous, fully
		// buffered frames of this event as the window holds and consume them
		// with one Discard, instead of paying two Peeks and a Discard per
		// frame. Any anomaly — short window, bad magic, other event, other
		// length — leaves the stream untouched past the clean prefix and
		// falls back to the general path, which owns resync, EOF, and
		// interruption handling.
		if n := sr.r.Buffered(); n >= total {
			win, _ := sr.r.Peek(n)
			// The walk shrinks the window head instead of indexing at a
			// running offset: every load is at a constant index under the
			// len(win) >= total guard, so the compiler drops all checks the
			// offset form would retain.
			off := 0
			for i < asics && len(win) >= total {
				h := win
				if h[0] != magicHi || h[1] != magicLo || h[headerBytes-1] != samples ||
					binary.BigEndian.Uint32(h[4:]) != event {
					break
				}
				win = win[total:]
				off += total
				i++
			}
			if off > 0 {
				if sr.capturing {
					// Re-peek the walked prefix rather than slice the window
					// at a running offset the compiler cannot bound.
					span, _ := sr.r.Peek(off)
					sr.capture = append(sr.capture, span...) //hepccl:amortized
				}
				sr.r.Discard(off)
				continue
			}
		}
		if err := sr.readPacketInto(&sr.scratch, true, event, int(samples)); err != nil {
			return event, assemblyErr(err, i, asics, event, sr.scratch.Event)
		}
		i++
	}
	return event, nil
}

// ReadEventInto collects the next `asics` packets that share one event id into
// dst. Packets from other events encountered mid-assembly are an error (the
// readout interleaves per event). dst's backing array (and the sample arrays
// of the packets it holds) are recycled when capacity allows; a nil dst
// allocates.
//
// When assembly is interrupted by a valid packet carrying a different event
// id, ErrIncompleteEvent is returned and that packet stays in the read window:
// the next call starts the new assembly from it. This bounds the damage of a
// lost or corrupted packet to exactly one event — were the interrupting packet
// consumed, every subsequent event would lose its first packet in turn, an
// unbounded resync cascade.
//
//hepccl:hotpath
func (sr *StreamReader) ReadEventInto(dst []Packet, asics int) ([]Packet, error) {
	//hepccl:coldpath
	if asics < 1 {
		return nil, fmt.Errorf("adapt: ReadEventInto needs asics >= 1")
	}
	//hepccl:amortized
	if cap(dst) < asics {
		dst = make([]Packet, asics)
	}
	dst = dst[:asics]
	sr.capture = sr.capture[:0]
	if err := sr.ReadPacketInto(&dst[0]); err != nil {
		return nil, err
	}
	event := dst[0].Event
	for i := 1; i < asics; i++ {
		if err := sr.readPacketInto(&dst[i], true, event, noSkim); err != nil {
			return nil, assemblyErr(err, i, asics, event, dst[i].Event)
		}
	}
	return dst, nil
}

// ReadSuppressed assembles the next event as ReadEventInto does — same
// framing, resync, interruption and capture behaviour, same counters — but
// zero-suppresses it on the way in: the result is the event's lit list, not
// its packets. Frames that continue the event verbatim are consumed by the
// Suppressor's wire scan straight from the read window, as many per Peek as
// the window holds, so a megapixel event streams through the 64 KiB window.
// Whatever the scan does not take — a window refill, garbage, a corrupted or
// interrupting frame — goes one frame through the general packet read, and a
// valid frame of this event that is off the scan's pattern (out of ASIC
// order, duplicate or unknown ASIC, a sample count that is not a multiple of
// four) is integrated from its decoded packet by the reference step, the
// event's verdict on it landing in LitEvent.Bad exactly as ServeEvent would
// have ruled. The returned lit list aliases the reader's scratch and is
// valid until the next call.
//
//hepccl:hotpath
func (sr *StreamReader) ReadSuppressed(s *Suppressor) (LitEvent, error) {
	//hepccl:amortized
	if len(sr.lit) != len(s.limits)+1 {
		sr.lit = make([]Lit, len(s.limits)+1)
		sr.seen = make([]uint64, (s.asics+63)/64)
	}
	out := sr.lit
	sr.capture = sr.capture[:0]
	var event uint32
	var bad error
	i, n := 0, 0
	// verbatim holds while every frame so far sat at its ASIC position with
	// the configured sample count — what the scan requires of the next one.
	verbatim := s.lim32 != nil
	if !verbatim {
		sr.seedSeen(0)
	}
	for i < s.asics {
		if nb := sr.r.Buffered(); verbatim && nb >= headerBytes {
			win, _ := sr.r.Peek(nb)
			if i == 0 {
				// Buffered() ≥ headerBytes bytes were just peeked.
				//hepccl:checked
				event = binary.BigEndian.Uint32(win[4:])
			}
			off, ni, nn := s.scan(win, i, event, out, n)
			if off > 0 {
				if sr.capturing {
					// scan returns at most len(win).
					//hepccl:checked
					sr.capture = append(sr.capture, win[:off]...) //hepccl:amortized
				}
				sr.r.Discard(off)
				i, n = ni, nn
				continue
			}
		}
		pkt := &sr.scratch
		if err := sr.readPacketInto(pkt, i > 0, event, noSkim); err != nil {
			if i == 0 {
				return LitEvent{}, err
			}
			return LitEvent{}, assemblyErr(err, i, s.asics, event, pkt.Event)
		}
		if i == 0 {
			event = pkt.Event
		}
		//hepccl:coldpath
		if verbatim && (pkt.ASICIndex() != i || int(pkt.SamplesPerChannel) != s.spc) {
			verbatim = false
			sr.seedSeen(i)
		}
		if !verbatim && bad == nil {
			// The reference route's validation is checkEvent's, packet by
			// packet; the first verdict stands.
			//hepccl:coldpath
			bad = s.checkPacket(sr.seen, event, pkt)
		}
		if bad == nil {
			// n counts lit channels of distinct valid ASICs, so the append
			// stays inside the scratch.
			//hepccl:checked
			n = len(s.integratePacket(pkt, out[:n]))
		}
		i++
	}
	ev := LitEvent{Event: event, Lit: out[:n]}
	if !verbatim {
		//hepccl:coldpath
		sr.ReferenceEvents++
		if bad != nil {
			ev.Lit, ev.Bad = nil, fmt.Errorf("adapt: %w", bad)
		} else {
			slices.Sort(ev.Lit)
		}
	}
	return ev, nil
}

// seedSeen resets the duplicate-ASIC bitmap to the verbatim prefix [0, n):
// the frames the scan accepted before the event left its pattern.
//
//hepccl:coldpath
func (sr *StreamReader) seedSeen(n int) {
	for k := range sr.seen {
		sr.seen[k] = 0
	}
	for a := 0; a < n; a++ {
		sr.seen[a>>6] |= 1 << uint(a&63)
	}
}
