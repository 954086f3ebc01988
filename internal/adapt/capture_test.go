package adapt

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// eventBytes marshals an event's frames back-to-back.
func eventBytes(t *testing.T, packets []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewStreamWriter(&buf).WriteEvent(packets); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCaptureCleanStream(t *testing.T) {
	const asics = 3
	evA := makePackets(t, asics, 1)
	evB := makePackets(t, asics, 2)
	rawA := eventBytes(t, evA)
	rawB := eventBytes(t, evB)

	sr := NewStreamReader(bytes.NewReader(append(append([]byte(nil), rawA...), rawB...)))
	sr.SetCapture(true)
	var dst []Packet
	for i, want := range [][]byte{rawA, rawB} {
		var err error
		dst, err = sr.ReadEventInto(dst, asics)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !bytes.Equal(sr.Captured(), want) {
			t.Fatalf("event %d: captured %d bytes, want %d verbatim", i, len(sr.Captured()), len(want))
		}
	}
}

func TestCaptureSkipsGarbage(t *testing.T) {
	const asics = 2
	ev := makePackets(t, asics, 5)
	raw := eventBytes(t, ev)
	stream := append([]byte{0xDE, 0xAD, 0xA1, 0x00}, raw...)

	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	if _, err := sr.ReadEventInto(nil, asics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sr.Captured(), raw) {
		t.Fatal("capture included skipped garbage")
	}
	if sr.SkippedBytes == 0 {
		t.Fatal("garbage not counted as skipped")
	}
}

func TestCaptureCorruptedFrameDropped(t *testing.T) {
	const asics = 2
	ev := makePackets(t, asics, 5)
	f0, err := ev[0].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := ev[1].Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A corrupted copy of frame 0 precedes the real event: its checksum fails,
	// so it must be resynced past and never captured.
	badF0 := append([]byte(nil), f0...)
	badF0[len(badF0)/2] ^= 0xFF
	stream := append(append(append([]byte(nil), badF0...), f0...), f1...)

	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	if _, err := sr.ReadEventInto(nil, asics); err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), f0...), f1...); !bytes.Equal(sr.Captured(), want) {
		t.Fatalf("captured %d bytes, want the %d clean bytes only", len(sr.Captured()), len(want))
	}
	if sr.BadPackets == 0 {
		t.Fatal("corrupted frame not counted")
	}
}

// TestCaptureInterruptedAssembly exercises the heldRaw path: an assembly of
// event 1 is interrupted by event 2's first frame; the retained frame's bytes
// must seed event 2's capture.
func TestCaptureInterruptedAssembly(t *testing.T) {
	const asics = 3
	ev1 := makePackets(t, asics, 1)
	ev2 := makePackets(t, asics, 2)
	raw2 := eventBytes(t, ev2)
	// Event 1 loses its last frame; event 2 follows in full.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.WritePacket(&ev1[0]); err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePacket(&ev1[1]); err != nil {
		t.Fatal(err)
	}
	buf.Write(raw2)

	sr := NewStreamReader(&buf)
	sr.SetCapture(true)
	if _, err := sr.ReadEventInto(nil, asics); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent, got %v", err)
	}
	dst, err := sr.ReadEventInto(nil, asics)
	if err != nil {
		t.Fatal(err)
	}
	if dst[0].Event != 2 {
		t.Fatalf("resumed assembly got event %d, want 2", dst[0].Event)
	}
	if !bytes.Equal(sr.Captured(), raw2) {
		t.Fatalf("captured %d bytes for the resumed event, want %d verbatim", len(sr.Captured()), len(raw2))
	}
}

// TestCaptureSkimInterruption: a skim is interrupted by a packet from the next
// event; that packet's raw bytes must survive into the next verified
// assembly's capture.
func TestCaptureSkimInterruption(t *testing.T) {
	const asics = 3
	ev1 := makePackets(t, asics, 1)
	ev2 := makePackets(t, asics, 2)
	raw2 := eventBytes(t, ev2)
	// Event 1 is short one frame, so the skim runs into event 2.
	stream := append(eventBytes(t, ev1[:asics-1]), raw2...)

	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	if _, err := sr.SkimEvent(asics); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent from skim, got %v", err)
	}
	dst, err := sr.ReadEventInto(nil, asics)
	if err != nil {
		t.Fatal(err)
	}
	if dst[0].Event != 2 {
		t.Fatalf("post-skim assembly got event %d, want 2", dst[0].Event)
	}
	if !bytes.Equal(sr.Captured(), raw2) {
		t.Fatalf("captured %d bytes after skim interruption, want %d verbatim", len(sr.Captured()), len(raw2))
	}
	if _, err := sr.ReadEventInto(dst, asics); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

// TestCaptureSkimRetainsInterruptingFrame frames an interrupted event the way
// the gateway does, skim after skim: the interrupting frame is retained, the
// next skim reassembles its event verbatim, and the one lost frame costs
// exactly one event.
func TestCaptureSkimRetainsInterruptingFrame(t *testing.T) {
	const asics = 4
	ev0 := makePackets(t, asics, 0)
	raw1 := eventBytes(t, makePackets(t, asics, 1))
	// Event 0 loses its last frame; event 1 arrives complete.
	stream := append(eventBytes(t, ev0[:asics-1]), raw1...)

	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	if _, err := sr.SkimEvent(asics); !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("want ErrIncompleteEvent, got %v", err)
	}
	id, err := sr.SkimEvent(asics)
	if err != nil {
		t.Fatalf("event after interruption: %v", err)
	}
	if id != 1 || !bytes.Equal(sr.Captured(), raw1) {
		t.Fatalf("retained-frame reassembly failed: id=%d, captured %d bytes, want %d verbatim", id, len(sr.Captured()), len(raw1))
	}
	if _, err := sr.SkimEvent(asics); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	if sr.SkippedBytes != 0 {
		t.Fatalf("interruption skipped %d bytes, want 0", sr.SkippedBytes)
	}
}

// TestCaptureSkimmedEvent: with capture on, a skim leaves the event's exact
// wire bytes, and the next assembly captures only its own.
func TestCaptureSkimmedEvent(t *testing.T) {
	const asics = 2
	raw1 := eventBytes(t, makePackets(t, asics, 1))
	raw2 := eventBytes(t, makePackets(t, asics, 2))
	stream := append(append([]byte(nil), raw1...), raw2...)

	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	if _, err := sr.SkimEvent(asics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sr.Captured(), raw1) {
		t.Fatalf("skim captured %d bytes, want %d verbatim", len(sr.Captured()), len(raw1))
	}
	if _, err := sr.ReadEventInto(nil, asics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sr.Captured(), raw2) {
		t.Fatal("assembly after skim captured wrong bytes")
	}
}

// TestCaptureSkimCleanStream frames a clean stream the way the gateway does:
// every skim returns the event's id and captures its wire bytes verbatim.
func TestCaptureSkimCleanStream(t *testing.T) {
	const asics = 4
	var stream []byte
	var wires [][]byte
	for id := uint32(0); id < 8; id++ {
		w := eventBytes(t, makePackets(t, asics, id))
		wires = append(wires, w)
		stream = append(stream, w...)
	}
	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	for i, want := range wires {
		id, err := sr.SkimEvent(asics)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if id != uint32(i) || !bytes.Equal(sr.Captured(), want) {
			t.Fatalf("event %d: id %d, captured %d bytes, want %d verbatim", i, id, len(sr.Captured()), len(want))
		}
	}
	if _, err := sr.SkimEvent(asics); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	if sr.SkippedBytes != 0 || sr.BadPackets != 0 {
		t.Fatalf("clean stream skipped %d bytes, %d bad packets", sr.SkippedBytes, sr.BadPackets)
	}
}

// TestCaptureSkimResyncAndGarbage: garbage before and between events and a
// truncated final frame are skipped and counted, never captured.
func TestCaptureSkimResyncAndGarbage(t *testing.T) {
	const asics = 3
	raw0 := eventBytes(t, makePackets(t, asics, 0))
	raw1 := eventBytes(t, makePackets(t, asics, 1))
	raw2 := eventBytes(t, makePackets(t, asics, 2))
	var stream []byte
	stream = append(stream, 0xde, 0xad, 0xbe, 0xef) // leading garbage
	stream = append(stream, raw0...)
	stream = append(stream, magicHi) // lone magic-high byte between events
	stream = append(stream, raw1...)
	stream = append(stream, raw2[:37]...) // truncated final frame

	sr := NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	for i, want := range [][]byte{raw0, raw1} {
		id, err := sr.SkimEvent(asics)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if id != uint32(i) || !bytes.Equal(sr.Captured(), want) {
			t.Fatalf("event %d: id %d, captured %d bytes, want %d verbatim", i, id, len(sr.Captured()), len(want))
		}
	}
	if _, err := sr.SkimEvent(asics); err != io.EOF {
		t.Fatalf("want io.EOF on the truncated tail, got %v", err)
	}
	if want := 4 + 1 + 37; sr.SkippedBytes != want {
		t.Fatalf("SkippedBytes = %d, want %d (garbage and truncation)", sr.SkippedBytes, want)
	}
}

func TestCaptureOffByDefault(t *testing.T) {
	const asics = 2
	stream := eventBytes(t, makePackets(t, asics, 1))
	stream = append(stream, stream...)
	sr := NewStreamReader(bytes.NewReader(stream))
	if _, err := sr.ReadEventInto(nil, asics); err != nil {
		t.Fatal(err)
	}
	if len(sr.Captured()) != 0 {
		t.Fatalf("capture accumulated %d bytes while off", len(sr.Captured()))
	}
	if _, err := sr.SkimEvent(asics); err != nil {
		t.Fatal(err)
	}
	if len(sr.Captured()) != 0 {
		t.Fatalf("skim captured %d bytes while off", len(sr.Captured()))
	}
}
