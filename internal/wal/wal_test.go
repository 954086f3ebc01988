package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
)

// payloadFor builds a deterministic pseudo-payload for event ev.
func payloadFor(ev uint32, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(ev + uint32(i)*7)
	}
	return p
}

// appendN appends events base..base+n-1 with varying payload sizes.
func appendN(t *testing.T, w *Writer, base uint32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := base + uint32(i)
		if err := w.Append(ev, payloadFor(ev, 100+int(ev%311))); err != nil {
			t.Fatalf("append %d: %v", ev, err)
		}
	}
}

// scanAll drains a scanner, verifying payload contents against payloadFor.
func scanAll(t *testing.T, dir string) []Record {
	t.Helper()
	sc, err := NewScanner(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var recs []Record
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("scan record %d: %v", len(recs), err)
		}
		if want := payloadFor(rec.Event, len(rec.Payload)); !bytes.Equal(rec.Payload, want) {
			t.Fatalf("event %d: payload mismatch", rec.Event)
		}
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
	}
	return recs
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, info, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments != 0 {
		t.Fatalf("fresh dir reported %d segments", info.Segments)
	}
	const n = 200
	appendN(t, w, 0, n) // several thousand bytes -> multiple 8 KiB segments
	snap := w.Snapshot()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Records != n {
		t.Fatalf("snapshot records = %d, want %d", snap.Records, n)
	}
	if snap.Segments < 2 {
		t.Fatalf("expected multiple segments at 8 KiB, got %d", snap.Segments)
	}
	recs := scanAll(t, dir)
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	var lastTs uint64
	for i, rec := range recs {
		if rec.Event != uint32(i) {
			t.Fatalf("record %d has event %d (order broken)", i, rec.Event)
		}
		if rec.TsNanos < lastTs {
			t.Fatalf("record %d timestamp went backwards: %d < %d", i, rec.TsNanos, lastTs)
		}
		lastTs = rec.TsNanos
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("y")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if w.AppendErrors() == 0 {
		t.Fatal("append errors not counted")
	}
}

func TestOversizedRecordGetsOwnSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	big := payloadFor(7, 64<<10)
	if err := w.Append(7, big); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 100, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := scanAll(t, dir)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	if len(recs[0].Payload) != len(big) {
		t.Fatalf("oversized payload came back %d bytes, want %d", len(recs[0].Payload), len(big))
	}
}

func TestRetentionDropsOldest(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 400)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("retention kept %d segments, want 2", len(paths))
	}
	recs := scanAll(t, dir)
	if len(recs) == 0 || len(recs) >= 400 {
		t.Fatalf("retained scan returned %d records, want a strict suffix", len(recs))
	}
	// The retained records must be a contiguous suffix of the appended ids.
	first := recs[0].Event
	for i, rec := range recs {
		if rec.Event != first+uint32(i) {
			t.Fatalf("retained record %d has event %d, want %d", i, rec.Event, first+uint32(i))
		}
	}
	if recs[len(recs)-1].Event != 399 {
		t.Fatalf("newest retained event = %d, want 399", recs[len(recs)-1].Event)
	}
}

// TestRecoveryTruncatesTornTail simulates the kill -9 torn write: a valid
// prefix followed by a record whose CRC never committed.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	appendN(t, w, 0, n)
	// Simulate the crash: leave the file preallocated (no seal) with a torn
	// record appended by hand past the valid prefix.
	snap := w.Snapshot()
	path := filepath.Join(dir, segName(snap.ActiveSegment))
	w.mu.Lock()
	off := w.off
	torn := make([]byte, 40)
	binary.BigEndian.PutUint32(torn, recMagic)
	binary.BigEndian.PutUint32(torn[4:], 16) // claims 16 payload bytes
	copy(torn[recHeaderLen:], "partial payload!")
	// Deliberately wrong CRC (left zero): the append died before commit.
	copy(w.seg.data[off:], torn)
	w.mu.Unlock()
	// Abandon the writer without Close/seal, as a kill would.

	// A raw scan sees the debris as exactly one torn segment.
	sc, err := NewScanner(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		k++
	}
	if k != n {
		t.Fatalf("pre-repair scan returned %d records, want %d", k, n)
	}
	if sc.Torn() != 1 {
		t.Fatalf("pre-repair scan found %d torn segments, want 1", sc.Torn())
	}

	// Reopen: recovery truncates the torn tail and reports it.
	w2, info, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.TailRecords != n {
		t.Fatalf("recovery kept %d records, want %d", info.TailRecords, n)
	}
	if info.TornBytes == 0 {
		t.Fatal("recovery reported no torn bytes for a torn tail")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != off {
		t.Fatalf("repaired segment is %d bytes, want %d", st.Size(), off)
	}
	// Recovery is idempotent and the log stays appendable.
	if err := w2.Append(1000, payloadFor(1000, 64)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := scanAll(t, dir)
	if len(recs) != n+1 {
		t.Fatalf("post-recovery scan returned %d records, want %d", len(recs), n+1)
	}
	if recs[n].Event != 1000 {
		t.Fatalf("appended-after-recovery event = %d, want 1000", recs[n].Event)
	}
}

func TestPayloadValidator(t *testing.T) {
	cfg := adapt.DefaultADAPT()
	cfg.ASICs = 4
	cfg.SamplesPerChannel = 4
	rng := detector.NewRNG(11)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	tracker := detector.DefaultTracker()
	tracker.Channels = cfg.ASICs * adapt.ChannelsPerASIC
	tracker.Threshold = 0
	ev, err := adapt.GenerateEvent(tracker.Event(rng).Values, cfg.ASICs, 42, 7, dig, rng)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	for i := range ev {
		f, err := ev[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		payload = append(payload, f...)
	}
	v := NewPayloadValidator()
	for round := 0; round < 3; round++ { // validator must be reusable
		id, err := v.Validate(payload, cfg.ASICs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if id != 42 {
			t.Fatalf("round %d: event id = %d, want 42", round, id)
		}
	}
	if _, err := v.Validate(payload[:len(payload)-10], cfg.ASICs); err == nil {
		t.Fatal("truncated payload validated")
	}
	if _, err := v.Validate(append(append([]byte(nil), payload...), 0xA1), cfg.ASICs); err == nil {
		t.Fatal("payload with trailing garbage validated")
	}
	// The first frame is checksummed, and every later frame must repeat its
	// event id and sample count, so neither a payload flip there nor a
	// re-stamped later frame validates.
	frame := len(payload) / cfg.ASICs
	for _, at := range []int{adapt.PacketHeaderBytes + 3, frame + 7} {
		bad := append([]byte(nil), payload...)
		bad[at] ^= 0x01
		if _, err := v.Validate(bad, cfg.ASICs); err == nil {
			t.Fatalf("payload with byte %d flipped validated", at)
		}
	}
	if id, err := v.Validate(payload, cfg.ASICs); err != nil || id != 42 {
		t.Fatalf("validator not reusable after a rejection: id=%d err=%v", id, err)
	}
}

func TestScannerIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-junk.seg"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := scanAll(t, dir); len(recs) != 3 {
		t.Fatalf("scan returned %d records, want 3", len(recs))
	}
}

func TestSync(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // no active segment yet
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsMissingDir(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open with no dir succeeded")
	}
}

func TestSegmentNameOrdering(t *testing.T) {
	// Indexes past 8 digits must still sort numerically.
	dir := t.TempDir()
	for _, idx := range []uint64{99999999, 100000000, 100000001} {
		name := segName(idx)
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, indexes, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{99999999, 100000000, 100000001}
	if fmt.Sprint(indexes) != fmt.Sprint(want) {
		t.Fatalf("indexes = %v, want %v", indexes, want)
	}
}
