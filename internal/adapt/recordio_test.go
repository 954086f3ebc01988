package adapt

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

func TestRecordScannerRoundTrip(t *testing.T) {
	recs := []EventRecord{
		{Event: 0, Islands: []IslandRecord{{Label: 1, Pixels: 3, Sum: 42, RowQ16: 1 << 16, ColQ16: 2 << 16}}},
		{Event: 1},
		{Event: 2, Islands: []IslandRecord{
			{Label: 1, Pixels: 2, Sum: 7, RowQ16: 0, ColQ16: 0},
			{Label: 2, Pixels: 5, Sum: 99, RowQ16: 3 << 15, ColQ16: 1 << 14},
		}},
	}
	var stream []byte
	var wires [][]byte
	for i := range recs {
		w := recs[i].Marshal()
		wires = append(wires, w)
		stream = append(stream, w...)
	}
	rs := NewRecordScanner(bytes.NewReader(stream), nil)
	for i, want := range wires {
		got, err := rs.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: bytes differ", i)
		}
		if RecordEventID(got) != recs[i].Event || int(binary.BigEndian.Uint32(got[4:])) != len(recs[i].Islands) {
			t.Fatalf("record %d: header fields wrong", i)
		}
	}
	if _, err := rs.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if rs.Records != len(recs) || rs.Islands != 3 {
		t.Fatalf("counters: records=%d islands=%d", rs.Records, rs.Islands)
	}
}

func TestRecordScannerMidRecordEOF(t *testing.T) {
	rec := EventRecord{Event: 9, Islands: []IslandRecord{{Label: 1, Pixels: 1, Sum: 1}}}
	w := rec.Marshal()
	rs := NewRecordScanner(bytes.NewReader(w[:len(w)-3]), nil)
	if _, err := rs.Next(); err == nil || err == io.EOF {
		t.Fatalf("mid-record EOF must be an error, got %v", err)
	}
}

// countingDeadliner records SetReadDeadline calls.
type countingDeadliner struct{ n int }

func (c *countingDeadliner) SetReadDeadline(time.Time) error { c.n++; return nil }

func TestDeadlineRearmerCadence(t *testing.T) {
	c := &countingDeadliner{}
	d := NewDeadlineRearmer(c, time.Second)
	for i := 0; i < 3*DeadlineRearmEvery; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if c.n != 3 {
		t.Fatalf("re-armed %d times over 3 windows, want 3", c.n)
	}
	// Zero timeout: no calls.
	c2 := &countingDeadliner{}
	d2 := NewDeadlineRearmer(c2, 0)
	for i := 0; i < 10; i++ {
		d2.Tick()
	}
	if c2.n != 0 {
		t.Fatalf("zero-timeout rearmer armed %d times", c2.n)
	}
}
