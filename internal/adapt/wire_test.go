package adapt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/design"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// wireOutcome is what one assembly call produced on either path: its class
// (ok / bad / incomplete), the marshaled record of an ok event, and the
// captured wire bytes of an assembled one.
type wireOutcome struct {
	class    string
	rec      []byte
	captured []byte
}

// wirePath runs the daemon's path over a stream: ReadSuppressed until EOF,
// each lit event served by p.
func wirePath(t testing.TB, p *Pipeline, stream []byte) (out []wireOutcome, sr *StreamReader) {
	t.Helper()
	sr = NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	sup := p.Suppressor()
	var rec EventRecord
	for iters := 0; ; iters++ {
		if iters > len(stream) {
			t.Fatalf("wire path made no progress on %d bytes", len(stream))
		}
		ev, err := sr.ReadSuppressed(sup)
		switch {
		case err == io.EOF:
			return out, sr
		case errors.Is(err, ErrIncompleteEvent):
			out = append(out, wireOutcome{class: "incomplete"})
		case err != nil:
			t.Fatalf("wire path: unexpected error from an in-memory stream: %v", err)
		case ev.Bad != nil:
			out = append(out, wireOutcome{class: "bad", captured: bytes.Clone(sr.Captured())})
		default:
			p.ServeLit(ev, &rec)
			out = append(out, wireOutcome{"ok", rec.AppendTo(nil), bytes.Clone(sr.Captured())})
		}
	}
}

// packetPath runs the reference over the same stream: ReadEventInto until
// EOF, each decoded event served by p's ServeEvent.
func packetPath(t testing.TB, p *Pipeline, stream []byte) (out []wireOutcome, sr *StreamReader) {
	t.Helper()
	sr = NewStreamReader(bytes.NewReader(stream))
	sr.SetCapture(true)
	var packets []Packet
	var rec EventRecord
	for iters := 0; ; iters++ {
		if iters > len(stream) {
			t.Fatalf("packet path made no progress on %d bytes", len(stream))
		}
		got, err := sr.ReadEventInto(packets, p.cfg.ASICs)
		switch {
		case err == io.EOF:
			return out, sr
		case errors.Is(err, ErrIncompleteEvent):
			out = append(out, wireOutcome{class: "incomplete"})
			continue
		case err != nil:
			t.Fatalf("packet path: unexpected error from an in-memory stream: %v", err)
		}
		packets = got
		if err := p.ServeEvent(packets, &rec); err != nil {
			out = append(out, wireOutcome{class: "bad", captured: bytes.Clone(sr.Captured())})
		} else {
			out = append(out, wireOutcome{"ok", rec.AppendTo(nil), bytes.Clone(sr.Captured())})
		}
	}
}

// compareWirePaths is the differential contract of the suppressed-wire path:
// over any byte stream it must agree with ReadEventInto + ServeEvent on the
// per-pixel oracle call for call — same outcome class, byte-equal records,
// byte-equal captures — and end with the same resync counters. It returns
// the wire path's outcomes and reader for further assertions.
func compareWirePaths(t testing.TB, cfg Config, stream []byte) ([]wireOutcome, *StreamReader) {
	t.Helper()
	pWire, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Serve = ServePixel
	pRef, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, srWire := wirePath(t, pWire, stream)
	want, srRef := packetPath(t, pRef, stream)
	if len(got) != len(want) {
		t.Fatalf("wire path made %d assemblies, packet path %d", len(got), len(want))
	}
	for i := range want {
		if got[i].class != want[i].class {
			t.Fatalf("assembly %d: wire path %s, packet path %s", i, got[i].class, want[i].class)
		}
		if !bytes.Equal(got[i].rec, want[i].rec) {
			t.Fatalf("assembly %d: records differ\nwire:   %x\npacket: %x", i, got[i].rec, want[i].rec)
		}
		if !bytes.Equal(got[i].captured, want[i].captured) {
			t.Fatalf("assembly %d: captured %d bytes, packet path captured %d (or contents differ)",
				i, len(got[i].captured), len(want[i].captured))
		}
	}
	if srWire.BadPackets != srRef.BadPackets || srWire.SkippedBytes != srRef.SkippedBytes {
		t.Fatalf("counters: wire path bad=%d skipped=%d, packet path bad=%d skipped=%d",
			srWire.BadPackets, srWire.SkippedBytes, srRef.BadPackets, srRef.SkippedBytes)
	}
	return got, srWire
}

// frameConfig is a small 2D (or, with rows == 0, 1D) pipeline configuration.
func frameConfig(rows, cols, asics1D, spc int, eight bool) Config {
	cfg := Config{
		ASICs:             asics1D,
		SamplesPerChannel: spc,
		PedestalPerSample: 200,
		GainADC:           40,
		ThresholdPE:       2,
	}
	if rows > 0 {
		conn := grid.FourWay
		if eight {
			conn = grid.EightWay
		}
		cfg.ASICs = (rows*cols + ChannelsPerASIC - 1) / ChannelsPerASIC
		cfg.Detection = design.TopConfig{
			TwoDimension: true,
			TwoD: design.Config{
				Rows: rows, Cols: cols,
				Connectivity: conn,
				Stage:        design.StagePipelined,
			},
		}
	}
	return cfg
}

// litFrames digitizes n events of blobby truth at the given lit fraction and
// returns each event's marshaled frames, ids counting up from firstID.
func litFrames(t testing.TB, cfg Config, n int, firstID uint32, occ float64, rng *detector.RNG) [][][]byte {
	t.Helper()
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	px := cfg.ASICs * ChannelsPerASIC
	if d := cfg.Detection; d.TwoDimension {
		px = d.TwoD.Rows * d.TwoD.Cols
	}
	events := make([][][]byte, n)
	for e := range events {
		truth := make([]grid.Value, cfg.ASICs*ChannelsPerASIC)
		for i := 0; i < px; i++ {
			// Runs of lit pixels, so islands span rows and ASIC boundaries.
			if rng.Float64() < occ || (i > 0 && truth[i-1] > 0 && rng.Float64() < 0.5) {
				truth[i] = grid.Value(3 + rng.Intn(40))
			}
		}
		packets, err := GenerateEvent(truth, cfg.ASICs, firstID+uint32(e), uint64(e), dig, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range packets {
			frame, err := packets[i].Marshal()
			if err != nil {
				t.Fatal(err)
			}
			events[e] = append(events[e], frame)
		}
	}
	return events
}

func joinFrames(events ...[][]byte) []byte {
	var stream []byte
	for _, ev := range events {
		for _, f := range ev {
			stream = append(stream, f...)
		}
	}
	return stream
}

// TestReadSuppressedCleanStream: on clean streams the suppressed-wire path
// serves every event exactly as the packet reference does, on each scan
// shape — one word per channel, several, and the reference route for a
// sample count that is not a multiple of four — for the 2D and 1D sinks and
// a frame larger than any paper geometry (its case name dates from the tiled
// route that used to serve it), and counts reference-route events only where
// that route runs.
func TestReadSuppressedCleanStream(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		reference bool
	}{
		{"cta-spc4", frameConfig(43, 43, 0, 4, false), false},
		{"cta-spc16-8way", frameConfig(43, 43, 0, 16, true), false},
		{"cta-spc6", frameConfig(43, 43, 0, 6, false), true},
		{"1d-spc4", frameConfig(0, 0, 20, 4, false), false},
		{"1d-spc3", frameConfig(0, 0, 20, 3, false), true},
		{"tiled-129x128", frameConfig(129, 128, 0, 4, false), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachKernel(t, func(t *testing.T) {
				const n = 5
				rng := detector.NewRNG(11)
				events := litFrames(t, tc.cfg, n, 40, 0.03, rng)
				got, sr := compareWirePaths(t, tc.cfg, joinFrames(events...))
				if len(got) != n {
					t.Fatalf("assembled %d events, want %d", len(got), n)
				}
				for i, o := range got {
					if o.class != "ok" {
						t.Fatalf("event %d: %s", i, o.class)
					}
				}
				want := 0
				if tc.reference {
					want = n
				}
				if sr.ReferenceEvents != want {
					t.Fatalf("ReferenceEvents = %d, want %d", sr.ReferenceEvents, want)
				}
			})
		})
	}
}

// TestReadSuppressedChecksumRewind: a frame that scans to the end — its lit
// channels already written — and then fails its checksum must leave nothing
// behind: the event assembles from the clean retransmission with exactly the
// clean event's record, and the frame costs one BadPackets.
func TestReadSuppressedChecksumRewind(t *testing.T) { eachKernel(t, testReadSuppressedChecksumRewind) }

func testReadSuppressedChecksumRewind(t *testing.T) {
	cfg := frameConfig(12, 16, 0, 4, false)
	rng := detector.NewRNG(5)
	ev := litFrames(t, cfg, 1, 9, 0.5, rng)[0] // dense: every frame has lit channels
	bad := bytes.Clone(ev[1])
	bad[len(bad)-1] ^= 0x01 // checksum bytes: every channel still scans as lit
	dirty := joinFrames([][]byte{ev[0], bad}, ev[1:])

	clean, _ := compareWirePaths(t, cfg, joinFrames(ev))
	got, sr := compareWirePaths(t, cfg, dirty)
	if len(got) != 1 || got[0].class != "ok" {
		t.Fatalf("dirty stream: %+v", got)
	}
	if !bytes.Equal(got[0].rec, clean[0].rec) {
		t.Fatal("a checksum-bad frame's lit entries leaked into the event")
	}
	if sr.BadPackets != 1 {
		t.Fatalf("BadPackets = %d, want 1", sr.BadPackets)
	}

	// The scan itself: it must stop at the bad frame having consumed only
	// frame 0, with n rewound to frame 0's lit count.
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sup := p.Suppressor()
	out := make([]Lit, len(sup.limits)+1)
	off0, _, n0 := sup.scan(ev[0], 0, 9, out, 0)
	off, i, n := sup.scan(dirty, 0, 9, out, 0)
	if off0 != len(ev[0]) || n0 == 0 {
		t.Fatalf("frame 0 alone: consumed %d of %d bytes, %d lit", off0, len(ev[0]), n0)
	}
	if off != off0 || i != 1 || n != n0 {
		t.Fatalf("scan past a bad frame: consumed %d (want %d), i=%d (want 1), n=%d (want %d)",
			off, off0, i, n, n0)
	}
}

// TestScanVerdictMatchesUnmarshal: the scan folds the frame checksum from the
// channel integrals instead of the wire words, which must never change a
// verdict — over every single-bit flip of a valid frame and a run of random
// multi-byte corruptions (including sample-preserving byte shuffles the
// additive checksum cannot see), scan takes the frame exactly when Unmarshal
// does, for the one-word and the multi-word scan.
func TestScanVerdictMatchesUnmarshal(t *testing.T) { eachKernel(t, testScanVerdictMatchesUnmarshal) }

func testScanVerdictMatchesUnmarshal(t *testing.T) {
	for _, spc := range []int{4, 12} {
		cfg := frameConfig(4, 4, 0, spc, false)
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sup := p.Suppressor()
		out := make([]Lit, len(sup.limits)+1)
		rng := detector.NewRNG(uint64(spc))
		frame := litFrames(t, cfg, 1, 77, 0.5, rng)[0][0]
		var pkt Packet
		agree := func(mut []byte, what string) {
			t.Helper()
			_, uerr := pkt.Unmarshal(mut)
			// A header the scan would not take verbatim is not its verdict
			// to give; only the checksum is under test.
			verbatim := uerr == nil || errors.Is(uerr, ErrChecksumMismatch)
			verbatim = verbatim && bytes.Equal(mut[:8], frame[:8]) && mut[headerBytes-1] == frame[headerBytes-1]
			off, _, _ := sup.scan(mut, 0, 77, out, 0)
			if took := off == len(mut); verbatim && took != (uerr == nil) {
				t.Fatalf("spc=%d %s: scan took=%v, Unmarshal err=%v", spc, what, took, uerr)
			}
		}
		mut := bytes.Clone(frame)
		agree(mut, "clean frame")
		for i := range frame {
			for b := 0; b < 8; b++ {
				mut[i] = frame[i] ^ 1<<b
				agree(mut, "single bit flip")
			}
			mut[i] = frame[i]
		}
		for k := 0; k < 20000; k++ {
			copy(mut, frame)
			i, j := 8+rng.Intn(len(mut)-8), 8+rng.Intn(len(mut)-8)
			switch k % 3 {
			case 0:
				mut[i], mut[j] = mut[j], mut[i]
			case 1:
				mut[i], mut[j] = byte(rng.Intn(256)), byte(rng.Intn(256))
			default: // move one count between two bytes: sum-preserving when aligned alike
				mut[i]++
				mut[j]--
			}
			agree(mut, "random corruption")
		}
	}
}

// TestReadSuppressedInterruption: a valid frame of the next event interrupts
// the assembly and stays in the window — the next call re-reads it intact,
// so the next event's record and capture are complete.
func TestReadSuppressedInterruption(t *testing.T) { eachKernel(t, testReadSuppressedInterruption) }

func testReadSuppressedInterruption(t *testing.T) {
	cfg := frameConfig(12, 16, 0, 4, false)
	rng := detector.NewRNG(6)
	evs := litFrames(t, cfg, 2, 1, 0.2, rng)
	short := evs[0][:len(evs[0])-1] // event 1 loses its last frame
	got, _ := compareWirePaths(t, cfg, joinFrames(short, evs[1]))
	if len(got) != 2 || got[0].class != "incomplete" || got[1].class != "ok" {
		t.Fatalf("outcomes %+v, want incomplete then ok", got)
	}
	if raw2 := joinFrames(evs[1]); !bytes.Equal(got[1].captured, raw2) {
		t.Fatalf("captured %d bytes for the resumed event, want %d verbatim", len(got[1].captured), len(raw2))
	}
}

// TestCaptureParityDirtyStreams: Captured() of the suppressed-wire path is
// ReadEventInto's byte for byte on resynced streams (garbage, a corrupted
// frame, both mid-event) and across an event the reference route assembles.
func TestCaptureParityDirtyStreams(t *testing.T) { eachKernel(t, testCaptureParityDirtyStreams) }

func testCaptureParityDirtyStreams(t *testing.T) {
	cfg := frameConfig(12, 16, 0, 4, false)
	rng := detector.NewRNG(7)
	evs := litFrames(t, cfg, 3, 1, 0.1, rng)
	corrupt := bytes.Clone(evs[1][2])
	corrupt[headerBytes+5] ^= 0x40
	garbage := [][]byte{{0xDE, 0xAD, 0xA1, 0x00, 0xA1}}
	// Event 3 arrives with two frames swapped: valid, but off the scan.
	swapped := append([][]byte(nil), evs[2]...)
	swapped[1], swapped[4] = swapped[4], swapped[1]
	stream := joinFrames(garbage, evs[0][:3], garbage, evs[0][3:],
		evs[1][:2], [][]byte{corrupt}, evs[1][2:], swapped)
	got, sr := compareWirePaths(t, cfg, stream)
	if len(got) != 3 {
		t.Fatalf("assembled %d events, want 3", len(got))
	}
	for i, want := range [][]byte{joinFrames(evs[0]), joinFrames(evs[1]), joinFrames(swapped)} {
		if got[i].class != "ok" || !bytes.Equal(got[i].captured, want) {
			t.Fatalf("event %d: class %s, captured %d bytes, want %d verbatim",
				i, got[i].class, len(got[i].captured), len(want))
		}
	}
	if sr.ReferenceEvents != 1 {
		t.Fatalf("ReferenceEvents = %d, want 1 (the swapped event)", sr.ReferenceEvents)
	}
}

// FuzzWireVsPacket is the differential check behind serving from the wire:
// for a fuzzer-chosen geometry (1D, the 43×43 camera, small odd frames, a
// frame larger than any paper geometry), sample count 1…17 (so the one-word scan,
// the multi-word scan and the reference route all run), connectivity and
// occupancy, three events are marshaled and their frame stream is then
// mangled by a fuzzer-written script — frames swapped, duplicated, dropped,
// re-stamped with another event's id, bits flipped, garbage inserted, the
// stream truncated — and compareWirePaths must hold on the result, under each
// scan kernel the host can run.
func FuzzWireVsPacket(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(4), false, []byte{})
	f.Add(uint64(2), uint8(0), uint8(16), false, []byte{0, 1, 2})
	f.Add(uint64(3), uint8(2), uint8(6), true, []byte{1, 3, 0, 1, 9, 7})
	f.Add(uint64(4), uint8(3), uint8(4), false, []byte{2, 200, 0})
	f.Add(uint64(5), uint8(1), uint8(8), true, []byte{3, 5, 1, 4, 77, 3, 5, 6, 2, 6, 90, 1})
	f.Add(uint64(6), uint8(2), uint8(1), false, []byte{0, 2, 5, 0, 3, 4})
	f.Add(uint64(7), uint8(1), uint8(12), false, []byte{4, 10, 3, 4, 250, 9, 5, 40, 8})
	f.Add(uint64(8), uint8(0), uint8(17), true, []byte{6, 128, 0})
	f.Fuzz(func(t *testing.T, seed uint64, geom, spcB uint8, eight bool, script []byte) {
		spc := 1 + int(spcB%17)
		rng := detector.NewRNG(seed | 1)
		var cfg Config
		switch geom % 4 {
		case 0:
			cfg = frameConfig(0, 0, 1+rng.Intn(20), spc, false)
		case 1:
			cfg = frameConfig(43, 43, 0, spc, eight)
		case 2:
			cfg = frameConfig(1+rng.Intn(12), 1+rng.Intn(70), 0, spc, eight)
		default:
			cfg = frameConfig(129, 128, 0, spc, eight) // larger than any paper geometry
		}
		occ := []float64{0, 0.02, 0.3}[rng.Intn(3)]
		events := litFrames(t, cfg, 3, 100, occ, rng)
		var frames [][]byte
		for _, ev := range events {
			frames = append(frames, ev...)
		}
		pick := func(b byte) int { return int(b) * len(frames) / 256 }
		truncate := -1
		for len(script) >= 3 && len(frames) > 0 {
			op, a, b := script[0], script[1], script[2]
			script = script[3:]
			i, j := pick(a), pick(b)
			switch op % 7 {
			case 0: // swap two frames (within an event: a shuffle; across: an interleave)
				frames[i], frames[j] = frames[j], frames[i]
			case 1: // duplicate a frame
				frames = append(frames[:i+1], frames[i:]...)
			case 2: // drop a frame
				frames = append(frames[:i], frames[i+1:]...)
			case 3: // re-stamp a frame with another event's id, checksum kept valid
				if fr := bytes.Clone(frames[i]); PatchFrameEventID(fr, 100+uint32(b%4)) == nil {
					frames[i] = fr // inserted garbage is too short to patch
				}
			case 4: // flip one bit
				fr := bytes.Clone(frames[i])
				fr[int(b)*len(fr)/256] ^= 1 << (a % 8)
				frames[i] = fr
			case 5: // garbage before a frame, magic byte included
				g := []byte{0xA1, b, 0xFA, a, 0xA1}
				frames = append(frames[:i], append([][]byte{g[:1+int(b%5)]}, frames[i:]...)...)
			case 6: // truncate the stream
				truncate = int(a)<<8 | int(b)
			}
		}
		stream := joinFrames(frames)
		if truncate >= 0 && truncate < len(stream) {
			stream = stream[:truncate]
		}
		withKernel(t, false)
		compareWirePaths(t, cfg, stream)
		if hostAVX2 {
			withKernel(t, true)
			compareWirePaths(t, cfg, stream)
		}
	})
}

// BenchmarkServeWire is the serving gate: distinct CTA shower events, cold —
// 512 of them (an 8.7 MB wire image, far beyond L2) read ahead 256 at a time
// as the daemon's block-policy queue does and served 64 at a time — from
// wire bytes to encoded records. The wire sub-benchmark is the daemon's path
// (ReadSuppressed → lit-list copy → ServeLit → AppendTo); packet is the
// same work through the []Packet reference (ReadEventInto → ServeBatch →
// AppendTo). CI gates the within-run ratio wire/packet, which holds on any
// host speed, and 0 allocs/op on wire.
func BenchmarkServeWire(b *testing.B) {
	const distinct, ahead, batch = 512, 256, 64
	cfg := DefaultCTA()
	cfg.SamplesPerChannel = 4
	image := ctaWireImage(b, cfg, distinct, 7)
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]EventRecord, batch)
	var buf []byte

	b.Run("wire", func(b *testing.B) {
		sr := NewStreamReader(&loopReader{data: image})
		sup := p.Suppressor()
		queue := make([]LitEvent, ahead)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += ahead {
			for i := range queue {
				ev, err := sr.ReadSuppressed(sup)
				if err != nil || ev.Bad != nil {
					b.Fatal(err, ev.Bad)
				}
				queue[i].Event = ev.Event
				queue[i].Lit = append(queue[i].Lit[:0], ev.Lit...)
			}
			for lo := 0; lo < ahead; lo += batch {
				for i := range recs {
					p.ServeLit(queue[lo+i], &recs[i])
				}
				buf = buf[:0]
				for i := range recs {
					buf = recs[i].AppendTo(buf)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+ahead-1)/ahead*ahead), "ns/event")
	})
	b.Run("packet", func(b *testing.B) {
		sr := NewStreamReader(&loopReader{data: image})
		queue := make([][]Packet, ahead)
		errs := make([]error, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += ahead {
			for i := range queue {
				var err error
				if queue[i], err = sr.ReadEventInto(queue[i], cfg.ASICs); err != nil {
					b.Fatal(err)
				}
			}
			for lo := 0; lo < ahead; lo += batch {
				if ok := p.ServeBatch(queue[lo:lo+batch], recs, errs); ok != batch {
					b.Fatalf("served %d of %d", ok, batch)
				}
				buf = buf[:0]
				for i := range recs {
					buf = recs[i].AppendTo(buf)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+ahead-1)/ahead*ahead), "ns/event")
	})
}

// ctaWireImage is the marshaled frame stream of n distinct CTA shower events.
func ctaWireImage(t testing.TB, cfg Config, n int, seed uint64) []byte {
	t.Helper()
	var image []byte
	for _, packets := range ctaEvents(t, cfg, n, seed) {
		for i := range packets {
			frame, err := packets[i].Marshal()
			if err != nil {
				t.Fatal(err)
			}
			image = append(image, frame...)
		}
	}
	return image
}

// loopReader replays one wire image forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}
