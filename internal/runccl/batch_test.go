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

// TestBatchMatchesEngine drives several events through one batch, one after
// another, and checks each event's islands right after it are bit-identical
// to ccl.Label's on the same frame. Rows span three bitmap words, so runs
// cross word boundaries.
func TestBatchMatchesEngine(t *testing.T) {
	const rows, cols = 17, 129
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		rng := detector.NewRNG(11)
		e, err := NewEngine(rows, cols, conn)
		if err != nil {
			t.Fatal(err)
		}
		b := e.NewBatch()
		for i := 0; i < 9; i++ {
			f := randomFrame(rng, rows, cols, float64(i)*0.08)
			batchFeed(e, b, f)
			sameIslands(t, fmt.Sprintf("%s event %d", conn, i),
				b.Islands(nil), wantIslands(t, rows, cols, conn, f))
		}
	}
}

// TestBatchEmptyEvents covers all-dark events between lit ones: they produce
// no islands, and neither take from nor leave anything to their neighbours.
func TestBatchEmptyEvents(t *testing.T) {
	rng := detector.NewRNG(3)
	e, err := NewEngine(12, 12, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	b := e.NewBatch()
	dark := make([]grid.Value, 12*12)
	lit := randomFrame(rng, 12, 12, 0.5)
	batchFeed(e, b, dark)
	if got := b.Islands(nil); len(got) != 0 {
		t.Fatalf("dark event 0 produced %d islands", len(got))
	}
	batchFeed(e, b, lit)
	sameIslands(t, "lit event", b.Islands(nil), wantIslands(t, 12, 12, grid.FourWay, lit))
	batchFeed(e, b, dark)
	if got := b.Islands(nil); len(got) != 0 {
		t.Fatalf("dark event 2 produced %d islands", len(got))
	}
}

// TestBatchEventIsolation feeds one frame whose islands touch the first and
// last rows three times through one arena: if state leaked from one event to
// the next (cursor, previous row, union ranges), the last row's runs would
// merge with the next event's first.
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
	want := wantIslands(t, 4, 8, grid.EightWay, v)
	for i := 0; i < 3; i++ {
		batchFeed(e, b, v)
		sameIslands(t, fmt.Sprintf("event %d (cross-event leak?)", i), b.Islands(nil), want)
	}
}

// TestBatchReuse checks a Batch object is fully recycled by BeginEvent: five
// random frames through one Batch each match ccl.Label, and a sparse frame
// served after a saturated one — every slot of the arena left holding large
// totals and links — matches a Batch that never saw it. Runs counts the runs
// sealed since Reset across events.
func TestBatchReuse(t *testing.T) {
	rng := detector.NewRNG(17)
	e, err := NewEngine(16, 64, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	b := e.NewBatch()
	for round := 0; round < 5; round++ {
		f := randomFrame(rng, 16, 64, 0.25)
		batchFeed(e, b, f)
		sameIslands(t, fmt.Sprintf("round %d", round), b.Islands(nil), wantIslands(t, 16, 64, grid.FourWay, f))
	}
	full := make([]grid.Value, 16*64)
	for i := range full {
		if i/64%2 == 0 || i%64%3 == 0 { // one island: full rows joined by columns
			full[i] = 1 << 20
		}
	}
	batchFeed(e, b, full)
	if got := b.Islands(nil); len(got) != 1 {
		t.Fatalf("saturated frame: %d islands, want 1", len(got))
	}
	sparse := randomFrame(rng, 16, 64, 0.1)
	b.Reset()
	if b.Runs() != 0 {
		t.Fatalf("Reset left %d runs", b.Runs())
	}
	batchFeed(e, b, sparse)
	fresh := e.NewBatch()
	batchFeed(e, fresh, sparse)
	sameIslands(t, "after saturated frame", b.Islands(nil), fresh.Islands(nil))
	batchFeed(e, b, sparse)
	if b.Runs() != 2*fresh.Runs() || fresh.Runs() == 0 {
		t.Fatalf("Runs after two sparse events = %d, want twice %d", b.Runs(), fresh.Runs())
	}
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
				for x := 0; x < int(b.next); x++ {
					run := &b.runs[x]
					if int(run.parent) > x || run.parent < 0 {
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
			sameIslands(t, fmt.Sprintf("%s frame %d vs flood fill\n%s", conn, fi, g),
				b.Islands(nil), islandsOf(g, labels, len(labels.Distinct())))
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
			if w != r*e.wpr+c/64 || bit != 1<<(c%64) {
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
