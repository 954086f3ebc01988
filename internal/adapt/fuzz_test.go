package adapt

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzStreamReader feeds arbitrary bytes to the packet-stream parser: it
// must never panic, must terminate, and every packet it does return must
// re-marshal to a validating frame.
func FuzzStreamReader(f *testing.F) {
	// Seed with a valid packet surrounded by junk.
	var p Packet
	p.Header = Header{ASIC: 2, Event: 5, SamplesPerChannel: 2}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{200, 240}
	}
	frame, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{0xA1, 0x00, 0xFF}, frame...), 0xA1, 0xFA, 0x01))
	f.Add(frame)
	f.Add([]byte{0xA1, 0xFA})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewStreamReader(bytes.NewReader(data))
		var pkt Packet
		for i := 0; i < 64; i++ { // bound iterations defensively
			err := sr.ReadPacketInto(&pkt)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("unexpected error kind: %v", err)
			}
			re, err := pkt.Marshal()
			if err != nil {
				t.Fatalf("returned packet does not re-marshal: %v", err)
			}
			var q Packet
			if _, err := q.Unmarshal(re); err != nil {
				t.Fatalf("returned packet does not re-validate: %v", err)
			}
		}
	})
}

// FuzzStreamReaderResync is the resynchronization contract under arbitrary
// link corruption: the reader never panics, never iterates without consuming
// input (progress), and its skipped-byte accounting is exact — at clean EOF
// every input byte is either part of a returned packet or counted in
// SkippedBytes, so a server can account for all traffic on a hostile link.
func FuzzStreamReaderResync(f *testing.F) {
	var p Packet
	p.Header = Header{ASIC: 0, Event: 7, SamplesPerChannel: 1}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{100}
	}
	frame, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(append(append([]byte{0xA1, 0xFA, 0x00}, corrupt...), frame...))
	f.Add(append(append([]byte(nil), frame...), frame[:9]...))
	f.Add(bytes.Repeat([]byte{0xA1}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// minWire is the smallest valid frame (SamplesPerChannel = 0), hence
		// the strongest bound on how many packets the input can contain.
		const minWire = headerBytes + 2
		maxIters := len(data)/minWire + 2

		// Phase 1: packet scanning with exact byte accounting.
		sr := NewStreamReader(bytes.NewReader(data))
		consumed := 0
		iters := 0
		var pkt Packet
		for {
			err := sr.ReadPacketInto(&pkt)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("non-EOF error from an in-memory stream: %v", err)
			}
			if iters++; iters > maxIters {
				t.Fatalf("no progress: %d packets from %d bytes", iters, len(data))
			}
			consumed += pkt.WireSize()
		}
		if consumed+sr.SkippedBytes != len(data) {
			t.Fatalf("accounting: %d consumed + %d skipped != %d input bytes",
				consumed, sr.SkippedBytes, len(data))
		}

		// Phase 2: event assembly over the same bytes must also terminate
		// with bounded iterations and without panicking.
		sr = NewStreamReader(bytes.NewReader(data))
		var dst []Packet
		for iters = 0; ; iters++ {
			if iters > maxIters {
				t.Fatalf("event assembly made no progress on %d bytes", len(data))
			}
			got, err := sr.ReadEventInto(dst, 3)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrIncompleteEvent) {
					t.Fatalf("unexpected assembly error kind: %v", err)
				}
				continue
			}
			dst = got
		}

		// Phase 3: the skim in capture mode (the gateway's and the WAL
		// validator's framer) over the same bytes terminates too, and every
		// event it frames starts with a verified frame of the id it reports.
		sr = NewStreamReader(bytes.NewReader(data))
		sr.SetCapture(true)
		for iters = 0; ; iters++ {
			if iters > maxIters {
				t.Fatalf("skim made no progress on %d bytes", len(data))
			}
			id, err := sr.SkimEvent(3)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrIncompleteEvent) {
					t.Fatalf("unexpected skim error kind: %v", err)
				}
				continue
			}
			var first Packet
			if _, err := first.Unmarshal(sr.Captured()); err != nil || first.Event != id {
				t.Fatalf("skimmed event %d: captured span does not open with its verified frame (%v)", id, err)
			}
		}
	})
}

// FuzzUnmarshalPacket checks Unmarshal never panics and never accepts a
// frame whose re-marshaling differs.
func FuzzUnmarshalPacket(f *testing.F) {
	var p Packet
	p.Header = Header{ASIC: 1, Event: 9, SamplesPerChannel: 3}
	for ch := 0; ch < ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{1, 2, 3}
	}
	frame, _ := p.Marshal()
	f.Add(frame)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Packet
		n, err := q.Unmarshal(data)
		if err != nil {
			return
		}
		re, err := q.Marshal()
		if err != nil {
			t.Fatalf("accepted packet does not re-marshal: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatal("re-marshaled frame differs from accepted input")
		}
	})
}

// FuzzEventRecord round-trips downlink records through arbitrary prefixes.
func FuzzEventRecord(f *testing.F) {
	rec := EventRecord{Event: 3, Islands: []IslandRecord{{Label: 1, Pixels: 2, Sum: 5, ColQ16: ToQ16(1.5)}}}
	f.Add(rec.Marshal())
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalEventRecord(data)
		if err != nil {
			return
		}
		re := got.Marshal()
		back, err := UnmarshalEventRecord(re)
		if err != nil {
			t.Fatalf("re-marshaled record does not parse: %v", err)
		}
		if back.Event != got.Event || len(back.Islands) != len(got.Islands) {
			t.Fatal("record round trip changed content")
		}
	})
}
