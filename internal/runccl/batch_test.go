package runccl

import (
	"fmt"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
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

// wantIslands is the independent reference for one values image: refIslands
// (ccl.Label plus integer moments) on a grid built from the same values.
func wantIslands(t *testing.T, rows, cols int, conn grid.Connectivity, values []grid.Value) []Island {
	t.Helper()
	g := grid.New(rows, cols)
	copy(g.Flat(), values)
	return refIslands(t, g, conn)
}

// sameIslands requires got to equal want position by position, whole structs.
func sameIslands(t *testing.T, ctx string, got, want []Island) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d islands, want %d", ctx, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s island %d: got %+v, want %+v", ctx, j+1, got[j], want[j])
		}
	}
}

// TestBatchMatchesEngine drives several events through one batch and checks
// each event's islands are bit-identical to ccl.Label's on the same frame.
// Rows span three bitmap words, so runs cross word boundaries.
func TestBatchMatchesEngine(t *testing.T) {
	const rows, cols = 17, 129
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		rng := detector.NewRNG(11)
		e, err := NewEngine(rows, cols, conn)
		if err != nil {
			t.Fatal(err)
		}
		b := e.NewBatch()
		const nEv = 9
		frames := make([][]grid.Value, nEv)
		b.Reset()
		for i := range frames {
			frames[i] = randomFrame(rng, rows, cols, float64(i)*0.08)
			batchFeed(e, b, frames[i])
		}
		if b.Events() != nEv {
			t.Fatalf("%s: %d events, want %d", conn, b.Events(), nEv)
		}
		for i := range frames {
			sameIslands(t, fmt.Sprintf("%s event %d", conn, i),
				b.Islands(i, nil), wantIslands(t, rows, cols, conn, frames[i]))
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
	if got := b.Islands(0, nil); len(got) != 0 {
		t.Fatalf("dark event 0 produced %d islands", len(got))
	}
	if got := b.Islands(2, nil); len(got) != 0 {
		t.Fatalf("dark event 2 produced %d islands", len(got))
	}
	sameIslands(t, "lit event", b.Islands(1, nil), wantIslands(t, 12, 12, grid.FourWay, lit))
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
	want := wantIslands(t, 4, 8, grid.EightWay, v)
	for i := 0; i < 3; i++ {
		sameIslands(t, fmt.Sprintf("event %d (cross-event leak?)", i), b.Islands(i, nil), want)
	}
}

// TestBatchReuse checks a Batch object is fully recycled by Reset: five
// random frames through one Batch each match ccl.Label, and a sparse frame
// served after a saturated one — every slot of the arena left holding large
// totals and links — matches a Batch that never saw it.
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
		sameIslands(t, fmt.Sprintf("round %d", round), b.Islands(0, nil), wantIslands(t, 16, 64, grid.FourWay, f))
	}
	full := make([]grid.Value, 16*64)
	for i := range full {
		if i/64%2 == 0 || i%64%3 == 0 { // one island: full rows joined by columns
			full[i] = 1 << 20
		}
	}
	b.Reset()
	batchFeed(e, b, full)
	if got := b.Islands(0, nil); len(got) != 1 {
		t.Fatalf("saturated frame: %d islands, want 1", len(got))
	}
	sparse := randomFrame(rng, 16, 64, 0.1)
	b.Reset()
	if b.Events() != 0 || b.Runs() != 0 {
		t.Fatalf("Reset left %d events, %d runs", b.Events(), b.Runs())
	}
	batchFeed(e, b, sparse)
	fresh := e.NewBatch()
	batchFeed(e, fresh, sparse)
	sameIslands(t, "after saturated frame", b.Islands(0, nil), fresh.Islands(0, nil))
}

// shapeFrames are the adversarial run sequences of TestBatchUnionInvariants:
// each has a run that joins two roots which already carry several runs.
var shapeFrames = []string{
	// comb: teeth grow down as separate roots, the spine joins them all.
	`
	 #.#.#.#.#
	 #.#.#.#.#
	 #.#.#.#.#
	 #########
	`,
	// U and W: arms of several runs each meet at the bottom.
	`
	 #.....#
	 #.....#
	 #.....#
	 #######
	`,
	`
	 #...#...#
	 #...#...#
	 ##.###.##
	 .###.###.
	`,
	// spiral: one island whose root changes as the outer arm closes.
	`
	 .........
	 .#######.
	 .#.....#.
	 .#.###.#.
	 .#.#...#.
	 .#.#####.
	 .#.......
	 .########
	`,
	// diagonals: joined 8-way only, through first and last columns.
	`
	 #.......#
	 .#.....#.
	 ..#...#..
	 ...#.#...
	 ....#....
	 ...#.#...
	 ..#...#..
	 .#.....#.
	 #.......#
	`,
	// a row gap: nothing below row 1 may link to anything above it.
	`
	 ##.###.##
	 #.......#
	 .........
	 #.......#
	 ##.###.##
	`,
	// first and last column only.
	`
	 #.......#
	 #.......#
	 ........#
	 #.......#
	`,
}

// TestBatchUnionInvariants feeds adversarial and random frames and cuts them
// one row at a time, checking after every row what fold-at-union rests on:
// the forest is min-root (parent[x] ≤ x, so a root is its set's first run),
// and the totals held at roots are exactly the totals of every pixel cut so
// far. At the end of each event Islands must equal the flood-fill islands in
// raster order of first pixel.
func TestBatchUnionInvariants(t *testing.T) {
	var frames []*grid.Grid
	for _, art := range shapeFrames {
		frames = append(frames, grid.MustParse(art))
	}
	rng := detector.NewRNG(29)
	for i := 0; i < 40; i++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(140)
		g := grid.New(rows, cols)
		copy(g.Flat(), randomFrame(rng, rows, cols, 0.1+0.1*float64(i%8)))
		frames = append(frames, g)
	}
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		for fi, g := range frames {
			// Values vary by position so a misplaced fold shows in the sums.
			for i, v := range g.Flat() {
				if v != 0 {
					g.Flat()[i] = grid.Value(1 + (i*7)%40)
				}
			}
			e, err := NewEngine(g.Rows(), g.Cols(), conn)
			if err != nil {
				t.Fatal(err)
			}
			b := e.NewBatch()
			// A first event ahead of the one under test: indexes are not
			// event-local, and no union may reach back into it.
			batchFeed(e, b, g.Flat())
			first := b.Runs()
			b.BeginEvent()
			b.ExtractEvent(e.Pack(g.Flat(), nil), g.Flat())
			var all arenaRun // totals over every pixel of the rows cut so far
			for r := 0; r < g.Rows(); r++ {
				b.cutRows(r + 1)
				for c := 0; c < g.Cols(); c++ {
					if v := int64(g.At(r, c)); v != 0 {
						all.pix++
						all.sum += v
						all.rowM += int64(r) * v
						all.colM += int64(c) * v
					}
				}
				var roots arenaRun
				for x := first; x < int(b.next); x++ {
					run := &b.runs[x]
					if int(run.parent) > x || int(run.parent) < first {
						t.Fatalf("%s frame %d after row %d: parent[%d] = %d\n%s",
							conn, fi, r, x, run.parent, g)
					}
					if int(run.parent) == x {
						roots.pix += run.pix
						roots.sum += run.sum
						roots.rowM += run.rowM
						roots.colM += run.colM
					}
				}
				if roots != all {
					t.Fatalf("%s frame %d after row %d: roots hold %+v, pixels total %+v\n%s",
						conn, fi, r, roots, all, g)
				}
			}
			b.EndEvent() // every row is cut: this only seals
			labels, err := labeling.FloodFill{}.Label(g, conn)
			if err != nil {
				t.Fatal(err)
			}
			want := islandsOf(g, labels, len(labels.Distinct()))
			for ev := 0; ev < 2; ev++ {
				sameIslands(t, fmt.Sprintf("%s frame %d event %d vs flood fill\n%s", conn, fi, ev, g),
					b.Islands(ev, nil), want)
			}
		}
	}
}

// TestBatchBit checks Bit's multiply-shift row division against real division
// on every pixel of small geometries and on the first and last pixels of every
// row of large ones, including a single row of 2^20 pixels.
func TestBatchBit(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {43, 43}, {7, 64}, {5, 65}, {17, 129}, {512, 512}, {4096, 255}, {1, 1 << 20}, {1 << 20, 3}} {
		rows, cols := g[0], g[1]
		e, err := NewEngine(rows, cols, grid.FourWay)
		if err != nil {
			t.Fatal(err)
		}
		b := e.NewBatch()
		check := func(fl int) {
			r, c := fl/cols, fl%cols
			w, bit := b.Bit(fl)
			if w != r*e.WordsPerRow()+c/64 || bit != 1<<(c%64) {
				t.Fatalf("%dx%d pixel %d: Bit = (%d, %#x), want row %d column %d", rows, cols, fl, w, bit, r, c)
			}
		}
		for r := 0; r < rows; r++ {
			if rows*cols <= 1<<16 {
				for c := 0; c < cols; c++ {
					check(r*cols + c)
				}
			} else {
				check(r * cols)
				check(r*cols + cols - 1)
			}
		}
	}
}
