package tileccl

import (
	"fmt"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/runccl"
)

// refIslands computes the expected island list from the reference flood-fill
// labeler with compact raster numbering, accumulating the identical integer
// moments both engines use. Positional comparison: both sides number islands
// 1..K in raster order of first appearance.
func refIslands(t testing.TB, g *grid.Grid, conn grid.Connectivity) []runccl.Island {
	t.Helper()
	res, err := ccl.Label(g, ccl.Options{Connectivity: conn, CompactLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	islands := make([]runccl.Island, res.Islands)
	rowM := make([]int64, res.Islands+1)
	colM := make([]int64, res.Islands+1)
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			l := res.Labels.At(r, c)
			if l == 0 {
				continue
			}
			v := int64(g.At(r, c))
			is := &islands[l-1]
			is.Pixels++
			is.Sum += v
			rowM[l] += int64(r) * v
			colM[l] += int64(c) * v
		}
	}
	for l := 1; l <= res.Islands; l++ {
		islands[l-1].Label = int32(l)
		islands[l-1].RowQ16 = runccl.Q16Ratio(rowM[l], islands[l-1].Sum)
		islands[l-1].ColQ16 = runccl.Q16Ratio(colM[l], islands[l-1].Sum)
	}
	return islands
}

// checkTriple labels g with the tiled engine under cfg and asserts the result
// is positionally identical to both single-core runccl and the flood-fill
// reference.
func checkTriple(t *testing.T, g *grid.Grid, cfg Config) {
	t.Helper()
	cfg.Rows, cfg.Cols = g.Rows(), g.Cols()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bitmap := e.Pack(g.Flat(), nil)
	got := e.Label(bitmap, g.Flat(), nil)

	conn := cfg.Connectivity
	if conn == 0 {
		conn = grid.FourWay
	}
	se, err := runccl.NewEngine(g.Rows(), g.Cols(), conn)
	if err != nil {
		t.Fatal(err)
	}
	single := se.Label(se.Pack(g.Flat(), nil), g.Flat(), nil)
	want := refIslands(t, g, conn)

	ctx := fmt.Sprintf("%s %dx%d tiles=%dx%d workers=%d",
		conn, g.Rows(), g.Cols(), e.tileRows, e.tileCols, e.Workers())
	if len(single) != len(want) {
		t.Fatalf("%s: runccl reference disagrees with flood fill: %d vs %d islands",
			ctx, len(single), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d islands, want %d\n%s", ctx, len(got), len(want), g)
	}
	for i := range got {
		if got[i] != want[i] || got[i] != single[i] {
			t.Fatalf("%s island %d: tiled %+v, single %+v, ref %+v\n%s",
				ctx, i+1, got[i], single[i], want[i], g)
		}
	}
}

// tileShapes returns decompositions that stress every seam case for an
// rows×cols frame: word-misaligned column splits, 1-row and 1-col tiles,
// tiles larger than the grid, and the automatic shape.
func tileShapes(rows, cols int) []Config {
	return []Config{
		{},                                       // automatic full-width bands
		{TileRows: 1, TileCols: cols},            // every seam horizontal
		{TileRows: rows, TileCols: 1},            // every seam vertical
		{TileRows: 1, TileCols: 1},               // both, single-pixel tiles
		{TileRows: rows + 3, TileCols: cols + 5}, // one tile larger than grid
		{TileRows: (rows + 1) / 2, TileCols: (cols + 1) / 2}, // 2x2-ish
		{TileRows: 3, TileCols: 7},                           // ragged, word-misaligned
		{TileRows: 5, TileCols: 64},                          // word-aligned column seams
		{TileRows: 5, TileCols: 63},                          // one off word alignment
	}
}

func TestLabelHandPicked(t *testing.T) {
	arts := []string{
		`#`,
		`.`,
		`####`,
		`#.#.#`,
		`
		 #.#
		 .#.
		 #.#
		`,
		`
		 ##..##
		 .#..#.
		 ..##..
		`,
		`
		 #######
		 #.....#
		 #.###.#
		 #.#.#.#
		 #.#####
		 #......
		 #######
		`,
		// Island crossing a 64-bit word boundary and multiple tile columns.
		`
		 ................................................................####
		 ####............................................................####
		`,
	}
	for i, art := range arts {
		g := grid.MustParse(art)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			for j, cfg := range tileShapes(g.Rows(), g.Cols()) {
				cfg.Connectivity = conn
				t.Run(fmt.Sprintf("art-%d/%s/shape-%d", i, conn, j), func(t *testing.T) {
					checkTriple(t, g, cfg)
				})
			}
		}
	}
}

// TestLabelCornerSeams pins the four-tile corner cases: diagonally adjacent
// pixels in all four corner orientations around a 2x2 tile intersection must
// merge under 8-way and stay separate under 4-way.
func TestLabelCornerSeams(t *testing.T) {
	arts := []string{
		`
		 .#..
		 ..#.
		`,
		`
		 ..#.
		 .#..
		`,
		`
		 .#.#
		 #.#.
		`,
		`
		 #..#
		 .##.
		 .##.
		 #..#
		`,
	}
	for i, art := range arts {
		g := grid.MustParse(art)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			// Tile splits placed exactly through the diagonal contacts.
			for _, cfg := range []Config{
				{TileRows: 1, TileCols: 2},
				{TileRows: 2, TileCols: 2},
				{TileRows: 1, TileCols: 1},
			} {
				cfg.Connectivity = conn
				t.Run(fmt.Sprintf("art-%d/%s/%dx%d", i, conn, cfg.TileRows, cfg.TileCols), func(t *testing.T) {
					checkTriple(t, g, cfg)
				})
			}
		}
	}
}

func TestLabelRandom(t *testing.T) {
	rng := detector.NewRNG(1234)
	sizes := [][2]int{{1, 1}, {1, 70}, {70, 1}, {8, 10}, {43, 43}, {64, 64}, {5, 129}, {67, 131}}
	for _, sz := range sizes {
		rows, cols := sz[0], sz[1]
		for _, occ := range []float64{0.02, 0.1, 0.3, 0.6, 0.95} {
			g := grid.New(rows, cols)
			for i := 0; i < g.Pixels(); i++ {
				if rng.Float64() < occ {
					g.Flat()[i] = grid.Value(1 + rng.Intn(40))
				}
			}
			for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
				for _, cfg := range tileShapes(rows, cols) {
					cfg.Connectivity = conn
					cfg.Workers = 1 + rng.Intn(8)
					checkTriple(t, g, cfg)
				}
			}
		}
	}
}

// TestLabelMegapixel runs the target workload class: a 512x512 frame at ~2%
// occupancy of blob-shaped islands, across worker counts.
func TestLabelMegapixel(t *testing.T) {
	if testing.Short() {
		t.Skip("megapixel differential in -short mode")
	}
	rng := detector.NewRNG(99)
	g := detector.RandomIslands(512, 512, 512*512/400, 1.6, rng)
	for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
		for _, w := range []int{1, 2, 4, 8} {
			checkTriple(t, g, Config{Connectivity: conn, Workers: w})
		}
	}
}

// TestLabelZeroAlloc asserts the steady-state contract: after one warmup
// event on the largest workload, Label with reused destination storage never
// allocates — including the pool wake/park round trip.
func TestLabelZeroAlloc(t *testing.T) {
	rng := detector.NewRNG(5)
	g := detector.RandomIslands(256, 256, 256*256/400, 1.6, rng)
	e, err := New(Config{Rows: 256, Cols: 256, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bitmap := e.Pack(g.Flat(), nil)
	islands := e.Label(bitmap, g.Flat(), nil) // warmup grows all arenas
	if len(islands) == 0 {
		t.Fatal("workload produced no islands")
	}
	allocs := testing.AllocsPerRun(100, func() {
		islands = e.Label(bitmap, g.Flat(), islands[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state Label allocates %.1f times per call, want 0", allocs)
	}
}

// TestLabelDstAppend checks Label appends to a non-empty destination without
// disturbing prior entries (the ServeBatch reuse pattern).
func TestLabelDstAppend(t *testing.T) {
	g := grid.MustParse(`
	 #..#
	 #..#
	`)
	e, err := New(Config{Rows: 2, Cols: 4, TileRows: 1, TileCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bitmap := e.Pack(g.Flat(), nil)
	sentinel := runccl.Island{Pixels: 99}
	out := e.Label(bitmap, g.Flat(), []runccl.Island{sentinel})
	if len(out) != 3 || out[0] != sentinel {
		t.Fatalf("append semantics broken: %+v", out)
	}
	if out[1].Pixels != 2 || out[2].Pixels != 2 {
		t.Fatalf("islands wrong: %+v", out[1:])
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Rows: 0, Cols: 5},
		{Rows: 5, Cols: 0},
		{Rows: 5, Cols: 5, Connectivity: grid.Connectivity(3)},
		{Rows: 5, Cols: 5, TileRows: -1},
		{Rows: 5, Cols: 5, Workers: -2},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d (%+v): want error", i, cfg)
		}
	}
}

// TestWorkersCappedAtTiles checks the pool never exceeds the tile count and a
// single-tile engine runs with no pool at all.
func TestWorkersCappedAtTiles(t *testing.T) {
	e, err := New(Config{Rows: 4, Cols: 4, TileRows: 4, TileCols: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Workers() != 1 {
		t.Fatalf("single-tile engine has %d workers, want 1", e.Workers())
	}
	if tr, tc := e.Tiles(); tr != 1 || tc != 1 {
		t.Fatalf("tile grid %dx%d, want 1x1", tr, tc)
	}
}

func TestCloseIdempotent(t *testing.T) {
	e, err := New(Config{Rows: 64, Cols: 64, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // second close must not panic
}

// TestInstrumentPhases checks the optional phase timers report non-negative
// spans covering a labeled event.
func TestInstrumentPhases(t *testing.T) {
	rng := detector.NewRNG(7)
	g := detector.RandomIslands(128, 128, 40, 1.6, rng)
	e, err := New(Config{Rows: 128, Cols: 128, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetInstrument(true)
	bitmap := e.Pack(g.Flat(), nil)
	e.Label(bitmap, g.Flat(), nil)
	tileNs, mergeNs := e.Phases()
	if tileNs < 0 || mergeNs < 0 {
		t.Fatalf("negative phase times: tile=%d merge=%d", tileNs, mergeNs)
	}
	e.SetInstrument(false)
	e.Label(bitmap, g.Flat(), nil)
}
