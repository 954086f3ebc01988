package uplink

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
)

// TestReadRecords feeds synthetic downlink frames over an in-memory pipe and
// checks record/island accounting and clean-EOF handling.
func TestReadRecords(t *testing.T) {
	client, srv := net.Pipe()
	recs := []adapt.EventRecord{
		{Event: 1, Islands: []adapt.IslandRecord{
			{Label: 1, Pixels: 3, Sum: 42, RowQ16: 1 << 16, ColQ16: 2 << 16},
			{Label: 2, Pixels: 1, Sum: 7},
		}},
		{Event: 2}, // empty event: header only
		{Event: 3, Islands: []adapt.IslandRecord{{Label: 1, Pixels: 9, Sum: 900}}},
	}
	var stream []byte
	for i := range recs {
		stream = recs[i].AppendTo(stream)
	}
	go func() {
		defer srv.Close()
		var buf []byte
		for i := range recs {
			buf = recs[i].AppendTo(buf[:0])
			if _, err := srv.Write(buf); err != nil {
				return
			}
		}
	}()
	seg := readRecords(client, time.Second, time.Now(), make([]atomic.Int64, 3))
	if seg.err != nil {
		t.Fatal(seg.err)
	}
	if seg.records != len(recs) || seg.islands != 3 {
		t.Fatalf("got %d records, %d islands; want %d, 3", seg.records, seg.islands, len(recs))
	}
	if seg.bytes != uint64(len(stream)) || seg.crc != crc32.Checksum(stream, castagnoli) {
		t.Fatalf("fingerprint %d bytes crc %08x, want %d bytes crc %08x",
			seg.bytes, seg.crc, len(stream), crc32.Checksum(stream, castagnoli))
	}
	// Event ids 1 and 2 index the three-entry send table; 3 does not.
	if len(seg.lats) != 2 {
		t.Fatalf("matched %d latencies, want 2", len(seg.lats))
	}
}

// TestDialRetryBacksOff: a dead address burns through the attempt budget with
// sleeps in between; a live address succeeds immediately with zero retries.
func TestDialRetryBacksOff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // now guaranteed dead

	ctx := context.Background()
	rng := detector.NewRNG(1)
	start := time.Now()
	if _, retries, err := dialRetry(ctx, addr, time.Second, rng, 3); err == nil {
		t.Fatal("dialing a closed port must eventually fail")
	} else if retries != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts)", retries)
	}
	// Two backoff sleeps: >= 10/2 + 20/2 ms even with minimal jitter.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("3 attempts finished in %v; backoff sleeps missing", elapsed)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go ln2.Accept()
	nc, retries, err := dialRetry(ctx, ln2.Addr().String(), time.Second, rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	nc.Close()
	if retries != 0 {
		t.Fatalf("live address took %d retries", retries)
	}
}

// TestTrimBooksTheCutEvent: after a failed write of n bytes the batch keeps
// exactly the events the write never reached, and only an event the error
// cut mid-way (and not already lost) counts as partial.
func TestTrimBooksTheCutEvent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int64
		lost     bool // the second event was already booked lost
		partials int
		keep     []int // sequence numbers left to re-send
	}{
		{"nothing written", 0, false, 0, []int{0, 1, 2}},
		{"first event whole", 10, false, 0, []int{1, 2}},
		{"second event cut", 14, false, 1, []int{2}},
		{"lost event cut", 14, true, 0, []int{2}},
		{"two events whole", 30, false, 0, []int{2}},
		{"last event cut", 31, false, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &sender{}
			// Event 0 is one 10-byte chunk, event 1 two chunks of 8 and 12,
			// event 2 one 5-byte chunk.
			s.add(0, [][]byte{make([]byte, 10)}, false)
			s.add(1, [][]byte{make([]byte, 8), make([]byte, 12)}, tc.lost)
			s.add(2, [][]byte{make([]byte, 5)}, false)
			s.trim(tc.n)
			if s.res.Partials != tc.partials {
				t.Fatalf("partials = %d, want %d", s.res.Partials, tc.partials)
			}
			if len(s.pend) != len(tc.keep) {
				t.Fatalf("kept %d events, want %v", len(s.pend), tc.keep)
			}
			chunks := 0
			for i, p := range s.pend {
				if p.seq != tc.keep[i] {
					t.Fatalf("kept event %d, want %d", p.seq, tc.keep[i])
				}
				size := 0
				for _, c := range s.bufs[chunks:p.end] {
					size += len(c)
				}
				if size != p.size {
					t.Fatalf("event %d: chunks hold %d bytes, want %d", p.seq, size, p.size)
				}
				chunks = p.end
			}
			if chunks != len(s.bufs) {
				t.Fatalf("%d chunks left over past the kept events", len(s.bufs)-chunks)
			}
		})
	}
}

// fixedSource yields n 16-byte events carrying their sequence number, due
// every gap, with event cut (if non-negative) planned to stop after 6 bytes.
type fixedSource struct {
	i, n, cut int
	gap       time.Duration
}

func (f *fixedSource) Next() (Event, error) {
	if f.i == f.n {
		return Event{}, io.EOF
	}
	wire := make([]byte, 16)
	binary.BigEndian.PutUint32(wire, uint32(f.i))
	ev := Event{Wire: wire, Due: time.Duration(f.i) * f.gap}
	if f.i == f.cut {
		ev.Cut = 6
	}
	f.i++
	return ev, nil
}

// echoRecords answers every whole 16-byte event on each connection with a
// header-only record carrying the event's id, and drops a trailing partial
// event, as a daemon drops an incomplete one.
func echoRecords(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				ev := make([]byte, 16)
				for {
					if _, err := io.ReadFull(nc, ev); err != nil {
						return
					}
					rec := adapt.EventRecord{Event: binary.BigEndian.Uint32(ev)}
					if _, err := nc.Write(rec.AppendTo(nil)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRunPacesAndCuts drives Run against echoRecords: a paced run is answered
// in full and matched event by event, and a planned cut costs exactly the cut
// event and one reconnect.
func TestRunPacesAndCuts(t *testing.T) {
	addr := echoRecords(t)
	const n = 40
	const gap = 500 * time.Microsecond
	res, err := Run(context.Background(), &fixedSource{n: n, cut: -1, gap: gap},
		Config{Addr: addr, Timeout: 5 * time.Second, Burst: 2 * time.Millisecond, Batch: 8, Events: n})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.Records != n || len(res.Latencies) != n {
		t.Fatalf("sent %d, records %d, latencies %d; want %d each", res.Sent, res.Records, len(res.Latencies), n)
	}
	// The last event is due at (n-1)*gap and may go out at most one burst early.
	if res.SendTime < (n-1)*gap-2*time.Millisecond {
		t.Fatalf("sent %d events in %v: pacing ignored", n, res.SendTime)
	}
	var want []byte
	for i := 0; i < n; i++ {
		want = (&adapt.EventRecord{Event: uint32(i)}).AppendTo(want)
	}
	if res.RecordBytes != uint64(len(want)) || res.CRC != crc32.Checksum(want, castagnoli) {
		t.Fatalf("downlink %d bytes crc %08x, want %d bytes crc %08x",
			res.RecordBytes, res.CRC, len(want), crc32.Checksum(want, castagnoli))
	}

	res, err = Run(context.Background(), &fixedSource{n: n, cut: 10},
		Config{Addr: addr, Timeout: 5 * time.Second, DialAttempts: 3, Events: n})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.Records != n-1 || res.Partials != 1 ||
		res.Connects != 2 || res.Reconnects != 1 {
		t.Fatalf("cut run: sent %d, records %d, partials %d, connects %d, reconnects %d; want %d, %d, 1, 2, 1",
			res.Sent, res.Records, res.Partials, res.Connects, res.Reconnects, n, n-1)
	}
}
