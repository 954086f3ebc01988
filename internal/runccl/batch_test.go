package runccl

import (
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// randomFrame builds a random sparse values image for the given geometry.
func randomFrame(rng *detector.RNG, rows, cols int, occ float64) []grid.Value {
	v := make([]grid.Value, rows*cols)
	for i := range v {
		if rng.Float64() < occ {
			v[i] = grid.Value(1 + rng.Intn(40))
		}
	}
	return v
}

// batchFeed extracts one values image into the open batch event via the
// bitmap reference route.
func batchFeed(e *Engine, b *Batch, values []grid.Value) {
	bitmap := e.Pack(values, nil)
	b.BeginEvent()
	b.ExtractEvent(bitmap, values)
	b.EndEvent()
}

// TestBatchMatchesEngine drives several events through one batch and checks
// each event's islands are bit-identical to Engine.Label on the same frame.
func TestBatchMatchesEngine(t *testing.T) {
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		rng := detector.NewRNG(11)
		e, err := NewEngine(17, 29, conn)
		if err != nil {
			t.Fatal(err)
		}
		b := e.NewBatch()
		const nEv = 9
		frames := make([][]grid.Value, nEv)
		b.Reset()
		for i := range frames {
			frames[i] = randomFrame(rng, 17, 29, float64(i)*0.08)
			batchFeed(e, b, frames[i])
		}
		if b.Events() != nEv {
			t.Fatalf("%s: %d events, want %d", conn, b.Events(), nEv)
		}
		b.Resolve()
		for i := range frames {
			got := b.Islands(i, nil)
			want := e.Label(e.Pack(frames[i], nil), frames[i], nil)
			if len(got) != len(want) {
				t.Fatalf("%s event %d: %d islands, want %d", conn, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s event %d island %d: got %+v, want %+v", conn, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestBatchEmptyEvents covers all-dark events: they occupy a slot, produce no
// islands, and do not perturb their neighbours.
func TestBatchEmptyEvents(t *testing.T) {
	rng := detector.NewRNG(3)
	e, err := NewEngine(12, 12, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	b := e.NewBatch()
	b.Reset()
	dark := make([]grid.Value, 12*12)
	lit := randomFrame(rng, 12, 12, 0.5)
	batchFeed(e, b, dark)
	batchFeed(e, b, lit)
	batchFeed(e, b, dark)
	b.Resolve()
	if got := b.Islands(0, nil); len(got) != 0 {
		t.Fatalf("dark event 0 produced %d islands", len(got))
	}
	if got := b.Islands(2, nil); len(got) != 0 {
		t.Fatalf("dark event 2 produced %d islands", len(got))
	}
	want := e.Label(e.Pack(lit, nil), lit, nil)
	got := b.Islands(1, nil)
	if len(got) != len(want) {
		t.Fatalf("lit event: %d islands, want %d", len(got), len(want))
	}
}

// TestBatchEventIsolation plants a frame whose islands touch the first and
// last rows in adjacent slots: if cross-event state leaked (cursor, previous
// row, union ranges), runs on event boundaries would merge across events.
func TestBatchEventIsolation(t *testing.T) {
	e, err := NewEngine(4, 8, grid.EightWay)
	if err != nil {
		t.Fatal(err)
	}
	// Full first and last rows: the worst case for boundary leakage.
	v := make([]grid.Value, 4*8)
	for c := 0; c < 8; c++ {
		v[c] = 3
		v[3*8+c] = 5
	}
	b := e.NewBatch()
	b.Reset()
	batchFeed(e, b, v)
	batchFeed(e, b, v)
	batchFeed(e, b, v)
	b.Resolve()
	want := e.Label(e.Pack(v, nil), v, nil)
	for i := 0; i < 3; i++ {
		got := b.Islands(i, nil)
		if len(got) != len(want) {
			t.Fatalf("event %d: %d islands, want %d (cross-event leak?)", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("event %d island %d: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestBatchReuse checks a Batch object is fully recycled by Reset.
func TestBatchReuse(t *testing.T) {
	rng := detector.NewRNG(17)
	e, err := NewEngine(16, 64, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	b := e.NewBatch()
	for round := 0; round < 5; round++ {
		b.Reset()
		f := randomFrame(rng, 16, 64, 0.25)
		batchFeed(e, b, f)
		b.Resolve()
		got := b.Islands(0, nil)
		want := e.Label(e.Pack(f, nil), f, nil)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d islands, want %d", round, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d island %d: got %+v, want %+v", round, j, got[j], want[j])
			}
		}
	}
}
