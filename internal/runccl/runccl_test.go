package runccl

import (
	"fmt"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// refIslands computes the expected Island list via the reference 1.5-pass
// labeler with compact raster numbering, accumulating the identical integer
// moments the engine uses. Because both number islands 1..K in raster order
// of first appearance, the comparison is positional and on whole structs.
func refIslands(t testing.TB, g *grid.Grid, conn grid.Connectivity) []Island {
	t.Helper()
	res, err := ccl.Label(g, ccl.Options{Connectivity: conn, CompactLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	return islandsOf(g, res.Labels, res.Islands)
}

// islandsOf accumulates the Island list of a labels image numbered 1..k.
func islandsOf(g *grid.Grid, labels *grid.Labels, k int) []Island {
	islands := make([]Island, k)
	rowM := make([]int64, k+1)
	colM := make([]int64, k+1)
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			l := labels.At(r, c)
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
	for l := 1; l <= k; l++ {
		is := &islands[l-1]
		is.Label = int32(l)
		is.RowQ16 = Q16Ratio(rowM[l], is.Sum)
		is.ColQ16 = Q16Ratio(colM[l], is.Sum)
	}
	return islands
}

func checkGrid(t *testing.T, g *grid.Grid, conn grid.Connectivity) {
	t.Helper()
	e, err := NewEngine(g.Rows(), g.Cols(), conn)
	if err != nil {
		t.Fatal(err)
	}
	bitmap := e.Pack(g.Flat(), nil)
	got := e.Label(bitmap, g.Flat(), nil)
	want := refIslands(t, g, conn)
	if len(got) != len(want) {
		t.Fatalf("%s %dx%d: %d islands, want %d\n%s",
			conn, g.Rows(), g.Cols(), len(got), len(want), g)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %dx%d island %d: got %+v, want %+v\n%s",
				conn, g.Rows(), g.Cols(), i+1, got[i], want[i], g)
		}
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
		`
		 ................................................................####
		 ####............................................................####
		`,
	}
	for i, art := range arts {
		g := grid.MustParse(art)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			t.Run(fmt.Sprintf("art-%d/%s", i, conn), func(t *testing.T) {
				checkGrid(t, g, conn)
			})
		}
	}
}

// TestLabelWordBoundaries exercises runs that touch, cross, and fill 64-bit
// word boundaries, where ExtractEvent carries a run from one word into the
// next.
func TestLabelWordBoundaries(t *testing.T) {
	for _, cols := range []int{63, 64, 65, 127, 128, 130} {
		g := grid.New(3, cols)
		// Row 0: one run covering everything.
		for c := 0; c < cols; c++ {
			g.Set(0, c, 1)
		}
		// Row 1: runs ending/starting exactly at word boundaries.
		for _, c := range []int{62, 63, 64, 65, cols - 1} {
			if c < cols {
				g.Set(1, c, grid.Value(c+1))
			}
		}
		// Row 2: alternating single-pixel runs.
		for c := 0; c < cols; c += 2 {
			g.Set(2, c, 2)
		}
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			t.Run(fmt.Sprintf("cols=%d/%s", cols, conn), func(t *testing.T) {
				checkGrid(t, g, conn)
			})
		}
	}
}

func TestLabelRandom(t *testing.T) {
	rng := detector.NewRNG(1234)
	sizes := [][2]int{{1, 1}, {1, 70}, {70, 1}, {8, 10}, {16, 16}, {43, 43}, {64, 64}, {5, 129}}
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
				checkGrid(t, g, conn)
			}
		}
	}
}

// TestLabelShowers runs the CTA-like workload the serving path actually sees.
func TestLabelShowers(t *testing.T) {
	cam := detector.LSTCamera()
	rng := detector.NewRNG(77)
	for ev := 0; ev < 20; ev++ {
		g := cam.Shower(cam.TypicalShower(rng), rng)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			checkGrid(t, g, conn)
		}
	}
}

// TestLabelZeroAlloc asserts the zero-steady-state-allocation contract: after
// one warmup event, Label with reused destination storage never allocates.
func TestLabelZeroAlloc(t *testing.T) {
	cam := detector.LSTCamera()
	rng := detector.NewRNG(5)
	g := cam.Shower(cam.TypicalShower(rng), rng)
	e, err := NewEngine(g.Rows(), g.Cols(), grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	bitmap := e.Pack(g.Flat(), nil)
	islands := e.Label(bitmap, g.Flat(), nil) // warmup
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
	e, err := NewEngine(2, 4, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	bitmap := e.Pack(g.Flat(), nil)
	sentinel := Island{Pixels: 99}
	out := e.Label(bitmap, g.Flat(), []Island{sentinel})
	if len(out) != 3 || out[0] != sentinel {
		t.Fatalf("append semantics broken: %+v", out)
	}
	if out[1].Pixels != 2 || out[2].Pixels != 2 {
		t.Fatalf("islands wrong: %+v", out[1:])
	}
}

func TestNewEngineRejectsBadConfig(t *testing.T) {
	if _, err := NewEngine(0, 5, grid.FourWay); err == nil {
		t.Fatal("zero rows must be rejected")
	}
	if _, err := NewEngine(5, 5, grid.Connectivity(3)); err == nil {
		t.Fatal("bad connectivity must be rejected")
	}
}
