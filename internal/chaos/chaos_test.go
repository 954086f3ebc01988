package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// corruptAll runs data through a fresh Reader in chunks of chunk bytes and
// returns everything delivered plus the terminal error.
func corruptAll(t *testing.T, data []byte, cfg Config, chunk int) ([]byte, Counts, error) {
	t.Helper()
	cr := NewReader(bytes.NewReader(data), cfg)
	var out []byte
	buf := make([]byte, chunk)
	for {
		n, err := cr.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return out, cr.Counts(), err
		}
	}
}

func TestReaderTransparentByDefault(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	out, counts, err := corruptAll(t, data, Config{Seed: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("zero config must be transparent: got %q", out)
	}
	if counts != (Counts{}) {
		t.Fatalf("zero config fired faults: %+v", counts)
	}
}

// TestReaderDeterministicAcrossChunking: corruption depends only on the seed
// and the byte stream, never on Read call sizes.
func TestReaderDeterministicAcrossChunking(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	cfg := Config{Seed: 42, BitFlip: 0.05, Drop: 0.02, Duplicate: 0.02, Insert: 0.02}
	a, ca, err := corruptAll(t, data, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, cb, err := corruptAll(t, data, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("corruption differs across chunkings")
	}
	if ca != cb {
		t.Fatalf("counts differ across chunkings: %+v vs %+v", ca, cb)
	}
	if ca.BitFlips == 0 || ca.DroppedBytes == 0 || ca.DuplicatedBytes == 0 || ca.InsertedBytes == 0 {
		t.Fatalf("4096 bytes at these rates must fire every fault kind: %+v", ca)
	}
	if len(a) == len(data) && bytes.Equal(a, data) {
		t.Fatal("stream not corrupted at all")
	}
	// A different seed must corrupt differently.
	c, _, err := corruptAll(t, data, Config{Seed: 43, BitFlip: 0.05, Drop: 0.02, Duplicate: 0.02, Insert: 0.02}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestReaderDisconnectIsSticky(t *testing.T) {
	data := make([]byte, 10000)
	cfg := Config{Seed: 7, Disconnect: 0.01}
	out, counts, err := corruptAll(t, data, cfg, 256)
	if !errors.Is(err, ErrDisconnect) || !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrDisconnect wrapping ErrInjected, got %v", err)
	}
	if counts.Disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1 (stream dies at the first)", counts.Disconnects)
	}
	if len(out) >= len(data) {
		t.Fatalf("disconnect at 1%%/byte must cut the stream early, delivered %d", len(out))
	}
	// The dead stream stays dead.
	cr := NewReader(bytes.NewReader(data), cfg)
	buf := make([]byte, 64)
	for {
		if _, err := cr.Read(buf); err != nil {
			break
		}
	}
	if _, err := cr.Read(buf); !errors.Is(err, ErrDisconnect) {
		t.Fatalf("post-disconnect read returned %v", err)
	}
}

func TestReaderStalls(t *testing.T) {
	data := make([]byte, 400)
	cfg := Config{Seed: 3, Stall: 0.05, StallDur: time.Millisecond}
	start := time.Now()
	_, counts, err := corruptAll(t, data, cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Stalls == 0 {
		t.Fatal("400 bytes at 5% stall probability must stall")
	}
	if elapsed := time.Since(start); elapsed < time.Duration(counts.Stalls)*time.Millisecond/2 {
		t.Fatalf("%d stalls elapsed only %v", counts.Stalls, elapsed)
	}
}

// TestReaderAgainstStreamParser: a corrupted packet stream must never break
// the parser — it recovers valid packets and accounts for the rest.
func TestReaderAgainstStreamParser(t *testing.T) {
	var buf bytes.Buffer
	sw := adapt.NewStreamWriter(&buf)
	const events = 200
	var p adapt.Packet
	p.Header = adapt.Header{SamplesPerChannel: 2}
	for ch := 0; ch < adapt.ChannelsPerASIC; ch++ {
		p.Samples[ch] = []int32{10, 20}
	}
	for e := 0; e < events; e++ {
		p.Event = uint32(e)
		if err := sw.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	cr := NewReader(bytes.NewReader(buf.Bytes()), Config{Seed: 11, BitFlip: 0.002, Drop: 0.001})
	sr := adapt.NewStreamReader(cr)
	recovered := 0
	var pkt adapt.Packet
	for {
		err := sr.ReadPacketInto(&pkt)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("parser must see corruption as EOF-or-skip, got: %v", err)
		}
		recovered++
	}
	counts := cr.Counts()
	if counts.BitFlips == 0 && counts.DroppedBytes == 0 {
		t.Fatal("no corruption fired; rates too low for stream length")
	}
	if recovered == 0 || recovered >= events {
		t.Fatalf("recovered %d of %d packets under corruption (want some, not all)", recovered, events)
	}
	if sr.SkippedBytes == 0 {
		t.Fatal("corruption must surface as skipped bytes")
	}
}

func TestConnWriteSideCorruptionAndDisconnect(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	cc := WrapConn(client, nil, &Config{Seed: 5, BitFlip: 0.01, Disconnect: 0.0005})
	recv := make(chan []byte, 1)
	go func() {
		got, _ := io.ReadAll(srv)
		recv <- got
	}()
	payload := make([]byte, 1000)
	var sent int
	var lastErr error
	for i := 0; i < 20; i++ {
		n, err := cc.Write(payload)
		sent += n
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrDisconnect) {
		t.Fatalf("20kB at 0.05%%/byte disconnect must sever the conn, got %v", lastErr)
	}
	if sent == 0 {
		t.Fatal("no source bytes consumed before the disconnect")
	}
	// The underlying conn is closed: the peer sees EOF, local writes fail.
	got := <-recv
	if len(got) == 0 {
		t.Fatal("nothing reached the peer before the disconnect")
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn must be closed after an injected disconnect")
	}
	if cc.WriteCounts().Disconnects != 1 {
		t.Fatalf("write counts: %+v", cc.WriteCounts())
	}
	if cc.ReadCounts() != (Counts{}) {
		t.Fatalf("read side must be transparent: %+v", cc.ReadCounts())
	}
}

func TestConnReadSidePassThrough(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	cc := WrapConn(client, &Config{Seed: 9}, nil) // zero rates: transparent
	go func() {
		srv.Write([]byte("hello"))
		srv.Close()
	}()
	got, err := io.ReadAll(cc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if cc.LocalAddr() == nil || cc.RemoteAddr() == nil {
		t.Fatal("addresses must delegate")
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameInjectorFaults(t *testing.T) {
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i)
	}
	fi := NewFrameInjector(FrameConfig{
		Seed: 17, BitFlip: 0.1, Truncate: 0.1, Drop: 0.1, Duplicate: 0.1, Insert: 0.1,
	})
	const frames = 2000
	emitted := 0
	for i := 0; i < frames; i++ {
		chunks, fault := fi.Mutate(frame)
		switch fault {
		case FaultNone:
			if len(chunks) != 1 || !bytes.Equal(chunks[0], frame) {
				t.Fatal("untouched frame altered")
			}
		case FaultBitFlip:
			if len(chunks) != 1 || len(chunks[0]) != len(frame) {
				t.Fatalf("bitflip changed frame length")
			}
			diff := 0
			for j := range frame {
				diff += popcount8(chunks[0][j] ^ frame[j])
			}
			if diff != 1 {
				t.Fatalf("bitflip changed %d bits, want 1", diff)
			}
		case FaultTruncate:
			if len(chunks) != 1 || len(chunks[0]) >= len(frame) || len(chunks[0]) < 1 {
				t.Fatalf("truncate produced %d bytes of %d", len(chunks[0]), len(frame))
			}
		case FaultDrop:
			if chunks != nil {
				t.Fatal("dropped frame still emitted bytes")
			}
		case FaultDuplicate:
			if len(chunks) != 2 || !bytes.Equal(chunks[0], frame) || !bytes.Equal(chunks[1], frame) {
				t.Fatal("duplicate must emit the frame twice")
			}
		case FaultInsert:
			if len(chunks) != 2 || !bytes.Equal(chunks[1], frame) || len(chunks[0]) == 0 {
				t.Fatal("insert must prepend garbage and keep the frame")
			}
		}
		for _, c := range chunks {
			emitted += len(c)
		}
	}
	var total uint64
	for f := FaultNone; f < numFrameFaults; f++ {
		n := fi.Count(f)
		if n == 0 {
			t.Fatalf("fault %v never fired in %d frames", f, frames)
		}
		total += n
	}
	if total != frames {
		t.Fatalf("fault counts sum to %d, want %d (one roll per frame)", total, frames)
	}
	if fi.Faulted()+fi.Count(FaultNone) != frames {
		t.Fatalf("Faulted()=%d inconsistent with counts", fi.Faulted())
	}
	if emitted == frames*len(frame) {
		t.Fatal("emitted byte count unchanged; faults had no effect")
	}
}

// TestFrameInjectorDeterministic: same seed, same faults.
func TestFrameInjectorDeterministic(t *testing.T) {
	frame := bytes.Repeat([]byte{0xAB}, 32)
	mk := func(seed uint64) []FrameFault {
		fi := NewFrameInjector(FrameConfig{Seed: seed, BitFlip: 0.2, Truncate: 0.2})
		out := make([]FrameFault, 100)
		for i := range out {
			_, out[i] = fi.Mutate(frame)
		}
		return out
	}
	a, b := mk(123), mk(123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs for equal seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestFrameFaultString(t *testing.T) {
	for f := FaultNone; f < numFrameFaults; f++ {
		if f.String() == "unknown" {
			t.Fatalf("fault %d has no name", int(f))
		}
	}
	if FrameFault(99).String() != "unknown" {
		t.Fatal("out-of-range fault must stringify as unknown")
	}
}
