package adapt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

// TestFramePatcherMatchesFullRecompute pins the incremental checksum update
// to the full refold: for a spread of event ids (including both 16-bit halves
// overflowing the fold), FramePatcher.SetEventID must produce bytes identical
// to PatchFrameEventID, and the result must unmarshal cleanly with the new id.
func TestFramePatcherMatchesFullRecompute(t *testing.T) {
	packets := makePackets(t, 2, 3)
	for pi := range packets {
		frame, err := packets[pi].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := NewFramePatcher(frame)
		if err != nil {
			t.Fatal(err)
		}
		full := append([]byte(nil), frame...)
		for _, ev := range []uint32{0, 1, 2, 0xFFFF, 0x10000, 0x1F0F3, 0xFFFFFFFF, 0xA1FAA1FA} {
			fp.SetEventID(frame, ev)
			if err := PatchFrameEventID(full, ev); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, full) {
				t.Fatalf("packet %d event %#x: incremental patch diverges from full recompute", pi, ev)
			}
			var p Packet
			if _, err := p.Unmarshal(frame); err != nil {
				t.Fatalf("packet %d event %#x: patched frame rejected: %v", pi, ev, err)
			}
			if p.Event != ev {
				t.Fatalf("packet %d: patched event id %d, want %d", pi, p.Event, ev)
			}
		}
	}
	if _, err := NewFramePatcher(make([]byte, headerBytes)); err == nil {
		t.Fatal("NewFramePatcher accepted a short frame")
	}
}

// TestSkimEvent drives the decode-free skim path through its corner cases:
// a clean skim returns the event id; an assembly interrupted by a packet from
// a later event surfaces ErrIncompleteEvent and fully decodes + retains the
// interrupting packet so the next real read starts from it with correct
// samples; and garbage between frames is counted exactly as in ReadPacketInto.
func TestSkimEvent(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	ev1 := makePackets(t, 3, 1)
	ev2 := makePackets(t, 3, 2)
	ev3 := makePackets(t, 3, 3)
	if err := sw.WriteEvent(ev1); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0xDE, 0xAD, 0xBE}) // inter-event garbage
	// Event 2 loses its last packet; event 3 interrupts the assembly.
	for i := 0; i < 2; i++ {
		if err := sw.WritePacket(&ev2[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.WriteEvent(ev3); err != nil {
		t.Fatal(err)
	}

	sr := NewStreamReader(&buf)
	id, err := sr.SkimEvent(3)
	if err != nil || id != 1 {
		t.Fatalf("skim event 1: id=%d err=%v", id, err)
	}
	if _, err := sr.SkimEvent(3); err == nil || !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("skim of truncated event 2: err=%v, want ErrIncompleteEvent", err)
	}
	if sr.SkippedBytes != 3 {
		t.Fatalf("SkippedBytes = %d, want 3 (inter-event garbage)", sr.SkippedBytes)
	}
	// The interrupting packet (event 3, ASIC 0) must have been retained fully
	// decoded: the follow-up assembly has to produce correct samples.
	got, err := sr.ReadEventInto(nil, 3)
	if err != nil {
		t.Fatalf("read event 3 after interrupted skim: %v", err)
	}
	for i := range got {
		if got[i].Event != 3 || got[i].ASIC != ev3[i].ASIC {
			t.Fatalf("packet %d: event %d asic %d, want event 3 asic %d",
				i, got[i].Event, got[i].ASIC, ev3[i].ASIC)
		}
		for ch := 0; ch < ChannelsPerASIC; ch++ {
			for s := range got[i].Samples[ch] {
				if got[i].Samples[ch][s] != ev3[i].Samples[ch][s] {
					t.Fatalf("packet %d ch %d sample %d: %d != %d",
						i, ch, s, got[i].Samples[ch][s], ev3[i].Samples[ch][s])
				}
			}
		}
	}
	if _, err := sr.SkimEvent(3); err != io.EOF {
		t.Fatalf("skim at end of stream: err=%v, want io.EOF", err)
	}
	if sr.BadPackets != 0 {
		t.Fatalf("BadPackets = %d, want 0", sr.BadPackets)
	}
}

// TestSkimEventCorruption pins the skim path's corruption semantics. A
// condemned event's first frame is verified, and a later frame is taken on
// its header alone only when the header repeats the first frame's event id
// and sample count. So a payload flip in a later frame goes unnoticed (the
// event is a loss either way), while a flip anywhere in the first frame, or in
// a later frame's id or length byte — the fields that would misframe or
// misattribute the stream — is a counted bad packet and exactly one incomplete
// event, with the next event intact.
func TestSkimEventCorruption(t *testing.T) {
	var clean bytes.Buffer
	sw := NewStreamWriter(&clean)
	for id := uint32(1); id <= 3; id++ {
		if err := sw.WriteEvent(makePackets(t, 2, id)); err != nil {
			t.Fatal(err)
		}
	}
	frame := clean.Len() / 6 // six equal frames
	for _, tc := range []struct {
		name   string
		at     int // byte to flip; event 2's frames start at 2*frame and 3*frame
		caught bool
	}{
		{"payload", 3*frame + headerBytes + 4, false},
		{"timestamp", 3*frame + 10, false},
		{"header", 2*frame + headerBytes - 1, true}, // first frame's length byte
		{"first frame payload", 2*frame + headerBytes + 4, true},
		{"first frame event id", 2*frame + 6, true},
		{"later frame event id", 3*frame + 6, true},
		{"later frame length", 3*frame + headerBytes - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), clean.Bytes()...)
			data[tc.at] ^= 0x01
			sr := NewStreamReader(bytes.NewReader(data))
			if id, err := sr.SkimEvent(2); err != nil || id != 1 {
				t.Fatalf("skim event 1: id=%d err=%v", id, err)
			}
			id, err := sr.SkimEvent(2)
			if !tc.caught {
				if err != nil || id != 2 || sr.BadPackets != 0 || sr.SkippedBytes != 0 {
					t.Fatalf("skim event 2: id=%d err=%v BadPackets=%d SkippedBytes=%d, want a clean skim: later frames are framed, not inspected",
						id, err, sr.BadPackets, sr.SkippedBytes)
				}
			} else if !errors.Is(err, ErrIncompleteEvent) || id != 2 || sr.BadPackets != 1 {
				t.Fatalf("skim event 2: id=%d err=%v BadPackets=%d, want event 2 incomplete with one bad packet",
					id, err, sr.BadPackets)
			}
			// Whatever happened to event 2, event 3 survives intact.
			got, err := sr.ReadEventInto(nil, 2)
			if err != nil || got[0].Event != 3 {
				t.Fatalf("read event 3 after the skim: %v", err)
			}
			if _, err := sr.SkimEvent(2); err != io.EOF {
				t.Fatalf("skim at end of stream: err=%v, want io.EOF", err)
			}
		})
	}
}

// TestUnmarshalDetectsEverySingleBitFlip exercises the fused verify+decode
// path: flipping any single bit of a valid frame must make Unmarshal fail
// (the additive checksum changes by a nonzero value mod 0xFFFF, and flips in
// the magic or length fields fail their own checks first).
func TestUnmarshalDetectsEverySingleBitFlip(t *testing.T) {
	packets := makePackets(t, 1, 9)
	frame, err := packets[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), frame...)
	var p Packet
	for i := range frame {
		for b := 0; b < 8; b++ {
			mut[i] = frame[i] ^ (1 << b)
			if _, err := p.Unmarshal(mut); err == nil {
				t.Fatalf("bit %d of byte %d flipped undetected", b, i)
			}
			mut[i] = frame[i]
		}
	}
	if _, err := p.Unmarshal(mut); err != nil {
		t.Fatalf("restored frame rejected: %v", err)
	}
}

// TestSkimLedgerSingleFault is the accounting identity the daemon's ledger
// rests on, checked exhaustively: whatever single fault lands in one event of
// a stream — any frame cut to any length, any bit flipped — reading the stream
// to its end counts every wire event exactly once (assembled or incomplete),
// never assembles an id twice, and loses at most the one event. The verified
// route is the reference and always loses exactly one; the skim must balance
// the same books while checking only what framing needs.
func TestSkimLedgerSingleFault(t *testing.T) {
	const (
		asics  = 4
		events = 40
		victim = 10
	)
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	dig.Samples = 4
	var clean bytes.Buffer
	sw := NewStreamWriter(&clean)
	for id := uint32(0); id < events; id++ {
		packets, err := GenerateEvent(nil, asics, id, uint64(id)*100, dig, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteEvent(packets); err != nil {
			t.Fatal(err)
		}
	}
	frame := clean.Len() / (events * asics)
	at := victim * asics * frame // the victim event's first byte

	routes := []struct {
		name string
		read func(sr *StreamReader, dst []Packet) (uint32, error)
		// exact: every fault is detected, so exactly one event is lost.
		exact bool
	}{
		{"verified", func(sr *StreamReader, dst []Packet) (uint32, error) {
			dst, err := sr.ReadEventInto(dst, asics)
			if err != nil {
				return 0, err
			}
			return dst[0].Event, nil
		}, true},
		{"skim", func(sr *StreamReader, _ []Packet) (uint32, error) {
			return sr.SkimEvent(asics)
		}, false},
		// The gateway's framer: the skim in capture mode must also hand over
		// every intact event's wire bytes verbatim.
		{"skim captured", func(sr *StreamReader, _ []Packet) (uint32, error) {
			sr.SetCapture(true)
			id, err := sr.SkimEvent(asics)
			if err == nil && id < events && id != victim {
				if want := clean.Bytes()[int(id)*asics*frame:][:asics*frame]; !bytes.Equal(sr.Captured(), want) {
					return id, fmt.Errorf("event %d: captured bytes differ from the wire", id)
				}
			}
			return id, err
		}, false},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			sr := NewStreamReader(nil)
			dst := make([]Packet, asics)
			var seen [events]int
			// audit reads stream to its end and checks the ledger.
			audit := func(fault string, stream []byte, detected bool) {
				sr.Reset(bytes.NewReader(stream))
				seen = [events]int{}
				assembled, incomplete := 0, 0
				for {
					id, err := rt.read(sr, dst)
					if err == io.EOF {
						break
					}
					switch {
					case err == nil && id < events:
						seen[id]++
						assembled++
					case errors.Is(err, ErrIncompleteEvent):
						incomplete++
					default:
						t.Fatalf("%s: id=%d err=%v", fault, id, err)
					}
				}
				if assembled+incomplete != events {
					t.Errorf("%s: assembled %d + incomplete %d = %d, want %d wire events (off by %+d)",
						fault, assembled, incomplete, assembled+incomplete, events, assembled+incomplete-events)
				}
				if incomplete > 1 || (detected && incomplete != 1) {
					t.Errorf("%s: %d events incomplete, want one lost", fault, incomplete)
				}
				for id, n := range seen {
					if n > 1 {
						t.Errorf("%s: event %d assembled %d times", fault, id, n)
					}
				}
			}
			// Every truncation: frame k of the victim cut to its first n bytes.
			cut := make([]byte, 0, clean.Len())
			for k := 0; k < asics; k++ {
				for n := 1; n < frame; n++ {
					start := at + k*frame
					cut = append(cut[:0], clean.Bytes()[:start+n]...)
					cut = append(cut, clean.Bytes()[start+frame:]...)
					audit(fmt.Sprintf("frame %d cut to %d bytes", k, n), cut, true)
				}
			}
			// Every single-bit flip inside the victim.
			flip := append([]byte(nil), clean.Bytes()...)
			for i := at; i < at+asics*frame; i++ {
				for b := 0; b < 8; b++ {
					flip[i] ^= 1 << b
					audit(fmt.Sprintf("bit %d of byte %d flipped", b, i-at), flip, rt.exact)
					flip[i] ^= 1 << b
				}
			}
		})
	}
}
