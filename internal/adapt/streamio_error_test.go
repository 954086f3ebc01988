package adapt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
)

// errTransport is the injected fault; tests assert it survives wrapping.
var errTransport = errors.New("simulated transport fault")

// faultReader yields data and then fails with errTransport instead of EOF.
type faultReader struct {
	data []byte
	off  int
}

func (f *faultReader) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, errTransport
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func testPackets(t testing.TB, asics int, event uint32) []Packet {
	t.Helper()
	dig := detector.DefaultDigitizer()
	dig.Samples = 4
	packets, err := GenerateEvent(nil, asics, event, 0, dig, detector.NewRNG(uint64(event)+1))
	if err != nil {
		t.Fatal(err)
	}
	return packets
}

func marshalStream(t testing.TB, packets []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.WriteEvent(packets); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamReaderWrapsTransportError injects a fault at several positions —
// before any frame, mid-header, and mid-body — and checks the cause is
// returned (wrapped) rather than masked as io.EOF.
func TestStreamReaderWrapsTransportError(t *testing.T) {
	stream := marshalStream(t, testPackets(t, 2, 7))
	frame := len(stream) / 2
	for _, cut := range []int{0, 1, 5, frame + 3, len(stream) - 1} {
		sr := NewStreamReader(&faultReader{data: stream[:cut]})
		var lastErr error
		for {
			err := sr.ReadPacketInto(new(Packet))
			if err != nil {
				lastErr = err
				break
			}
		}
		if errors.Is(lastErr, io.EOF) {
			t.Fatalf("cut at %d: transport fault reported as io.EOF", cut)
		}
		if !errors.Is(lastErr, errTransport) {
			t.Fatalf("cut at %d: error %v does not wrap the cause", cut, lastErr)
		}
	}
}

// TestStreamReaderCleanEOF confirms genuine end of stream is still io.EOF,
// including after trailing garbage and after a truncated final frame.
func TestStreamReaderCleanEOF(t *testing.T) {
	stream := marshalStream(t, testPackets(t, 2, 3))
	cases := map[string][]byte{
		"exact":           stream,
		"trailing junk":   append(append([]byte{}, stream...), 0xA1, 0x00, 0x42),
		"truncated frame": stream[:len(stream)-5],
	}
	for name, data := range cases {
		sr := NewStreamReader(bytes.NewReader(data))
		var err error
		for err == nil {
			err = sr.ReadPacketInto(new(Packet))
		}
		if !errors.Is(err, io.EOF) {
			t.Fatalf("%s: got %v, want io.EOF", name, err)
		}
	}
}

// TestReadEventWrapsTransportError: a fault mid-event must surface both
// ErrIncompleteEvent (the assembly outcome) and the transport cause.
func TestReadEventWrapsTransportError(t *testing.T) {
	const asics = 3
	stream := marshalStream(t, testPackets(t, asics, 5))
	cut := len(stream) - len(stream)/asics - 2 // inside the last packet
	sr := NewStreamReader(&faultReader{data: stream[:cut]})
	_, err := sr.ReadEventInto(nil, asics)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("error %v does not wrap ErrIncompleteEvent", err)
	}
	if !errors.Is(err, errTransport) {
		t.Fatalf("error %v does not wrap the transport cause", err)
	}
}

// TestReadEventTruncatedIsIncomplete: clean EOF mid-event reports an
// incomplete event with packet counts, not a bare EOF.
func TestReadEventTruncatedIsIncomplete(t *testing.T) {
	const asics = 3
	stream := marshalStream(t, testPackets(t, asics, 5))
	sr := NewStreamReader(bytes.NewReader(stream[:len(stream)/2]))
	_, err := sr.ReadEventInto(nil, asics)
	if !errors.Is(err, ErrIncompleteEvent) {
		t.Fatalf("got %v, want ErrIncompleteEvent", err)
	}
}

// corruptedStream interleaves valid frames with checksum-corrupted copies —
// the resynchronization worst case.
func corruptedStream(t testing.TB, events int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for ev := 0; ev < events; ev++ {
		for i, pkt := range testPackets(t, 4, uint32(ev)) {
			frame, err := pkt.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				bad := append([]byte{}, frame...)
				bad[headerBytes+3] ^= 0x55 // payload corruption
				buf.Write(bad)
			}
			buf.Write(frame)
		}
	}
	return buf.Bytes()
}

// TestStreamReaderCorruptionRecovery: every valid frame around the corrupted
// ones must still parse.
func TestStreamReaderCorruptionRecovery(t *testing.T) {
	const events = 5
	stream := corruptedStream(t, events)
	sr := NewStreamReader(bytes.NewReader(stream))
	good := 0
	for {
		if err := sr.ReadPacketInto(new(Packet)); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		good++
	}
	if want := events * 4; good != want {
		t.Fatalf("parsed %d valid packets, want %d", good, want)
	}
	if sr.BadPackets != events*2 {
		t.Fatalf("BadPackets = %d, want %d", sr.BadPackets, events*2)
	}
	if sr.SkippedBytes == 0 {
		t.Fatal("corruption must skip bytes")
	}
}

// BenchmarkStreamReaderCorrupted measures packet parsing on a stream where
// half the frames fail validation. The push-back path used to nest a fresh
// bufio.Reader + io.MultiReader per corrupted frame; with the pending-bytes
// buffer and the static checksum error the loop stays allocation-free after
// warm-up no matter how corrupted the link is.
func BenchmarkStreamReaderCorrupted(b *testing.B) {
	stream := corruptedStream(b, 20)
	r := bytes.NewReader(stream)
	sr := NewStreamReader(r)
	var p Packet
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		sr.Reset(r)
		for {
			if err := sr.ReadPacketInto(&p); err != nil {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
		}
	}
}

// BenchmarkStreamReaderClean is the baseline on an uncorrupted stream.
func BenchmarkStreamReaderClean(b *testing.B) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for ev := 0; ev < 20; ev++ {
		if err := sw.WriteEvent(testPackets(b, 4, uint32(ev))); err != nil {
			b.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	sr := NewStreamReader(r)
	var p Packet
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		sr.Reset(r)
		for {
			if err := sr.ReadPacketInto(&p); err != nil {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
