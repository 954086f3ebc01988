package adapt

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

func makePackets(t *testing.T, n int, event uint32) []Packet {
	t.Helper()
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	packets, err := GenerateEvent(nil, n, event, uint64(event)*100, dig, nil)
	if err != nil {
		t.Fatal(err)
	}
	return packets
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	want := makePackets(t, 3, 7)
	if err := sw.WriteEvent(want); err != nil {
		t.Fatal(err)
	}
	if sw.Packets != 3 {
		t.Fatalf("writer counted %d packets", sw.Packets)
	}
	sr := NewStreamReader(&buf)
	for i := 0; i < 3; i++ {
		p := new(Packet)
		err := sr.ReadPacketInto(p)
		if err != nil {
			t.Fatal(err)
		}
		if p.ASIC != want[i].ASIC || p.Event != 7 {
			t.Fatalf("packet %d header mismatch: %+v", i, p.Header)
		}
	}
	if err := sr.ReadPacketInto(new(Packet)); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	if sr.SkippedBytes != 0 || sr.BadPackets != 0 {
		t.Fatalf("clean stream reported skips: %d/%d", sr.SkippedBytes, sr.BadPackets)
	}
}

func TestStreamResyncAfterGarbage(t *testing.T) {
	var buf bytes.Buffer
	// Leading garbage, one packet, inter-packet garbage, another packet.
	buf.Write([]byte{0x00, 0xFF, 0x13, 0xA1}) // includes a lone 0xA1 decoy
	sw := NewStreamWriter(&buf)
	packets := makePackets(t, 2, 9)
	if err := sw.WritePacket(&packets[0]); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF})
	if err := sw.WritePacket(&packets[1]); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(&buf)
	var p0, p1 Packet
	if err := sr.ReadPacketInto(&p0); err != nil {
		t.Fatal(err)
	}
	if err := sr.ReadPacketInto(&p1); err != nil {
		t.Fatal(err)
	}
	if p0.ASIC != 0 || p1.ASIC != 1 {
		t.Fatalf("resync returned wrong packets: %d, %d", p0.ASIC, p1.ASIC)
	}
	if sr.SkippedBytes == 0 {
		t.Fatal("skipped bytes not counted")
	}
	if err := sr.ReadPacketInto(new(Packet)); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestStreamCorruptedPacketIsSkipped(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	packets := makePackets(t, 2, 11)
	if err := sw.WritePacket(&packets[0]); err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePacket(&packets[1]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[30] ^= 0xFF // corrupt a sample in packet 0: checksum fails

	sr := NewStreamReader(bytes.NewReader(data))
	var p Packet
	if err := sr.ReadPacketInto(&p); err != nil {
		t.Fatal(err)
	}
	if p.ASIC != 1 {
		t.Fatalf("expected to recover packet 1, got ASIC %d", p.ASIC)
	}
	if sr.BadPackets != 1 {
		t.Fatalf("BadPackets = %d, want 1", sr.BadPackets)
	}
}

func TestStreamTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	packets := makePackets(t, 1, 3)
	if err := sw.WritePacket(&packets[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sr := NewStreamReader(bytes.NewReader(data[:len(data)-5]))
	if err := sr.ReadPacketInto(new(Packet)); err != io.EOF {
		t.Fatalf("truncated tail: want EOF, got %v", err)
	}
}

func TestReadEvent(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	ev0 := makePackets(t, 3, 0)
	ev1 := makePackets(t, 3, 1)
	if err := sw.WriteEvent(ev0); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(ev1); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(&buf)
	got0, err := sr.ReadEventInto(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := sr.ReadEventInto(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got0[0].Event != 0 || got1[0].Event != 1 || len(got0) != 3 || len(got1) != 3 {
		t.Fatalf("event assembly wrong: %d/%d", got0[0].Event, got1[0].Event)
	}
	if _, err := sr.ReadEventInto(nil, 3); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadEventIncomplete(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	ev := makePackets(t, 3, 5)
	if err := sw.WriteEvent(ev[:2]); err != nil { // missing one packet
		t.Fatal(err)
	}
	sr := NewStreamReader(&buf)
	if _, err := sr.ReadEventInto(nil, 3); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent, got %v", err)
	}
	// Interleaved foreign event.
	buf.Reset()
	sw = NewStreamWriter(&buf)
	sw.WritePacket(&ev[0])
	other := makePackets(t, 1, 6)
	sw.WritePacket(&other[0])
	sr = NewStreamReader(&buf)
	if _, err := sr.ReadEventInto(nil, 2); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent on interleave, got %v", err)
	}
	if _, err := sr.ReadEventInto(nil, 0); err == nil {
		t.Fatal("asics < 1 must error")
	}
}

// TestReadEventResyncAfterLostPacket: a lost packet must cost exactly one
// event. The packet that interrupts the broken assembly belongs to the next
// event and must be retained as that event's first packet — without
// retention, every later event would lose its first packet in turn.
func TestReadEventResyncAfterLostPacket(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	ev0 := makePackets(t, 3, 0)
	ev1 := makePackets(t, 3, 1)
	ev2 := makePackets(t, 3, 2)
	sw.WritePacket(&ev0[0]) // rest of event 0 lost on the link
	if err := sw.WriteEvent(ev1); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(ev2); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(&buf)
	if _, err := sr.ReadEventInto(nil, 3); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent for the broken event, got %v", err)
	}
	var dst []Packet
	for want := uint32(1); want <= 2; want++ {
		got, err := sr.ReadEventInto(dst, 3)
		if err != nil {
			t.Fatalf("event %d must survive the resync: %v", want, err)
		}
		if got[0].Event != want || got[0].ASIC != 0 || got[1].ASIC != 1 || got[2].ASIC != 2 {
			t.Fatalf("event %d reassembled wrong: id=%d asics=%d,%d,%d",
				want, got[0].Event, got[0].ASIC, got[1].ASIC, got[2].ASIC)
		}
		dst = got
	}
	if _, err := sr.ReadEventInto(nil, 3); err != io.EOF {
		t.Fatalf("want clean EOF after resync, got %v", err)
	}
}

// TestReadEventHeldPacketFlushedAtEOF: a retained interrupting packet at the
// end of the stream surfaces as one final incomplete event, then clean EOF.
func TestReadEventHeldPacketFlushedAtEOF(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	ev0 := makePackets(t, 3, 0)
	ev1 := makePackets(t, 3, 1)
	sw.WritePacket(&ev0[0])
	sw.WritePacket(&ev1[0]) // interrupts event 0, then the stream ends
	sr := NewStreamReader(&buf)
	if _, err := sr.ReadEventInto(nil, 3); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent, got %v", err)
	}
	if _, err := sr.ReadEventInto(nil, 3); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("held packet must flush as an incomplete event, got %v", err)
	}
	if _, err := sr.ReadEventInto(nil, 3); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// Property: any packet sequence round-trips through the stream, even with
// random garbage injected between packets.
func TestStreamRoundTripProperty(t *testing.T) {
	dig := detector.DefaultDigitizer()
	dig.NoiseRMS = 0
	f := func(events [4]uint32, garbage [4][]byte) bool {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		var want []uint32
		for i, ev := range events {
			// Garbage that cannot contain a full fake packet header is
			// safely skipped; avoid embedding the magic byte pair.
			g := garbage[i]
			for j := 0; j+1 < len(g); j++ {
				if g[j] == 0xA1 && g[j+1] == 0xFA {
					g[j] = 0
				}
			}
			buf.Write(g)
			packets, err := GenerateEvent(nil, 1, ev, 0, dig, nil)
			if err != nil {
				return false
			}
			if err := sw.WritePacket(&packets[0]); err != nil {
				return false
			}
			want = append(want, ev)
		}
		sr := NewStreamReader(&buf)
		var p Packet
		for _, ev := range want {
			if err := sr.ReadPacketInto(&p); err != nil || p.Event != ev {
				return false
			}
		}
		err := sr.ReadPacketInto(&p)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBadPacketBudgetSurfacesStorm: with a budget set, a garbage-only stream
// returns ErrResyncStorm instead of hunting to EOF, and the stream stays
// usable afterwards.
func TestBadPacketBudgetSurfacesStorm(t *testing.T) {
	good := makePackets(t, 1, 9)[0]
	frame, err := good.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-3] ^= 0xFF
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		buf.Write(bad)
	}
	buf.Write(frame)

	sr := NewStreamReader(bytes.NewReader(buf.Bytes()))
	sr.BadPacketBudget = 4
	var p Packet
	storms := 0
	for {
		err := sr.ReadPacketInto(&p)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrResyncStorm) {
			t.Fatalf("got %v, want ErrResyncStorm", err)
		}
		storms++
		if storms > 10 {
			t.Fatal("storm error loops without progress")
		}
	}
	if p.Event != 9 {
		t.Fatalf("recovered event %d, want 9", p.Event)
	}
	if storms == 0 {
		t.Fatal("budget of 4 over 10 bad frames must surface at least one storm")
	}
	if sr.BadPackets != 10 {
		t.Fatalf("BadPackets = %d, want 10", sr.BadPackets)
	}
	// Unlimited budget: same stream, no storm errors.
	sr2 := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err := sr2.ReadPacketInto(&p); err != nil {
		t.Fatalf("unlimited budget errored: %v", err)
	}
}

// scanMagicRef is the obvious two-byte scan scanMagic must agree with.
func scanMagicRef(buf []byte) int {
	for i := 0; i+1 < len(buf); i++ {
		if buf[i] == magicHi && buf[i+1] == magicLo {
			return i
		}
	}
	return -1
}

// TestScanMagicBorrowFalsePositive pins the borrow-ripple bug: the SWAR
// zero-byte detect flags the lane one above an exact 0xA1 match (the
// subtraction borrows across lanes), and without re-verifying the candidate
// byte the scanner reported a pair at a position holding 0xA0. The stream
// reader recovered by rejecting the header and re-hunting, but every such
// hit cost an extra peek-discard round trip per corrupted window.
func TestScanMagicBorrowFalsePositive(t *testing.T) {
	cases := [][]byte{
		// 0xA1 0xA0 0x5A inside one word: the 0xA0 lane is falsely flagged
		// and is followed by the magic-low byte.
		{0, 0, magicHi, 0xA0, magicLo, 0, 0, 0, 0, 0, 0, 0},
		// Same pattern with a real pair later in the buffer.
		{0, magicHi, 0xA0, magicLo, 0, 0, 0, 0, magicHi, magicLo, 0, 0},
		// Ripple chain: consecutive 0xA1 bytes keep the borrow alive.
		{magicHi, magicHi, magicHi, 0xA0, magicLo, 0, 0, 0, 0, 0, 0, 0},
	}
	for i, buf := range cases {
		if got, want := scanMagic(buf), scanMagicRef(buf); got != want {
			t.Errorf("case %d: scanMagic = %d, want %d", i, got, want)
		}
	}
}

// TestScanMagicExhaustive sweeps every pair position and word-lane phase,
// plus randomized magic-heavy buffers, against the reference scan.
func TestScanMagicExhaustive(t *testing.T) {
	for size := 0; size <= 40; size++ {
		for at := 0; at+1 < size; at++ {
			buf := make([]byte, size)
			buf[at] = magicHi
			buf[at+1] = magicLo
			if got := scanMagic(buf); got != at {
				t.Fatalf("size %d pair at %d: got %d", size, at, got)
			}
		}
	}
	rng := detector.NewRNG(7)
	buf := make([]byte, 64)
	for trial := 0; trial < 50000; trial++ {
		n := rng.Intn(len(buf))
		b := buf[:n]
		for i := range b {
			// Bias heavily toward the magic bytes and their borrow
			// neighbours to stress candidate verification.
			switch rng.Intn(5) {
			case 0:
				b[i] = magicHi
			case 1:
				b[i] = magicLo
			case 2:
				b[i] = 0xA0
			default:
				b[i] = byte(rng.Intn(256))
			}
		}
		if got, want := scanMagic(b), scanMagicRef(b); got != want {
			t.Fatalf("n=%d buf=%x: got %d, want %d", n, b, got, want)
		}
	}
}
