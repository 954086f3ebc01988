package ccl

import (
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

func TestTiledMatchesGoldenOnFixtures(t *testing.T) {
	arts := []string{
		"#", "...\n...",
		"###\n###\n###",
		"#.#.#\n#.#.#\n##.##\n..#..",
		"#..#.\n#.##.\n###..", // corner-case pattern: tiled must still be right
		"#######\n......#\n#####.#\n#...#.#\n#.#.#.#\n#.###.#\n#.....#\n#######",
	}
	golden := labeling.FloodFill{}
	for _, art := range arts {
		g := grid.MustParse(art)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			for _, tile := range [][2]int{{1, 1}, {2, 3}, {3, 2}, {4, 4}, {8, 8}, {100, 100}} {
				want, err := golden.Label(g, conn)
				if err != nil {
					t.Fatal(err)
				}
				res, err := LabelTiled(g, TiledOptions{
					Connectivity: conn, TileRows: tile[0], TileCols: tile[1],
				})
				if err != nil {
					t.Fatalf("%v tile %v: %v", conn, tile, err)
				}
				if !res.Labels.Isomorphic(want) {
					t.Errorf("%v tile %v:\n%s\ngot:\n%s\nwant iso to:\n%s",
						conn, tile, g, res.Labels, want)
				}
				if res.Islands != want.Count() {
					t.Errorf("%v tile %v: islands %d, want %d", conn, tile, res.Islands, want.Count())
				}
			}
		}
	}
}

func TestTiledDefaults(t *testing.T) {
	g := grid.MustParse("##\n##")
	res, err := LabelTiled(g, TiledOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Islands != 1 || res.Tiles != 1 {
		t.Fatalf("defaults: %+v", res)
	}
}

func TestTiledValidation(t *testing.T) {
	g := grid.New(4, 4)
	if _, err := LabelTiled(g, TiledOptions{Connectivity: grid.Connectivity(3)}); err == nil {
		t.Error("bad connectivity must error")
	}
	if _, err := LabelTiled(g, TiledOptions{TileRows: -1}); err == nil {
		t.Error("bad tile size must error")
	}
}

func TestTiledMetrics(t *testing.T) {
	// 16x16 full grid with 4x4 tiles: 16 tiles, one component spanning all,
	// per-tile groups bounded by the tile's worst case.
	g := grid.New(16, 16)
	for i := range g.Flat() {
		g.Flat()[i] = 1
	}
	res, err := LabelTiled(g, TiledOptions{TileRows: 4, TileCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != 16 {
		t.Fatalf("tiles = %d, want 16", res.Tiles)
	}
	if res.Islands != 1 {
		t.Fatalf("islands = %d, want 1", res.Islands)
	}
	if res.MaxTileGroups < 1 || res.MaxTileGroups > SizeFor(4, 4, grid.FourWay) {
		t.Fatalf("MaxTileGroups = %d outside bounds", res.MaxTileGroups)
	}
	// 15 unions minimum to join 16 tiles' components.
	if res.BoundaryUnions < 15 {
		t.Fatalf("BoundaryUnions = %d, want ≥ 15", res.BoundaryUnions)
	}
}

// TestTiledCountsPinned pins LabelTiled's three counts on the tiled fixtures,
// so a change to how tile labels or seam unions are recorded fails here even
// when the labels still match flood fill. BoundaryUnions counts unions whose
// two roots differed: tile components minus islands.
func TestTiledCountsPinned(t *testing.T) {
	arts := []string{
		"###\n###\n###",
		"#.#.#\n#.#.#\n##.##\n..#..",
		"#..#.\n#.##.\n###..",
		"#######\n......#\n#####.#\n#...#.#\n#.#.#.#\n#.###.#\n#.....#\n#######",
	}
	full := grid.New(16, 16)
	for i := range full.Flat() {
		full.Flat()[i] = 1
	}
	ring := grid.New(13, 17)
	for c := 0; c < 17; c++ {
		ring.Set(12, c, 1)
	}
	for r := 0; r < 13; r++ {
		ring.Set(r, 16, 1)
	}
	checker := grid.New(32, 32)
	for r := 0; r < 32; r++ {
		for c := 0; c < 32; c++ {
			if (r+c)%2 == 0 {
				checker.Set(r, c, 1)
			}
		}
	}
	dense := denseTestGrid(31, 29)
	four, eight := grid.FourWay, grid.EightWay
	cases := []struct {
		name                      string
		g                         *grid.Grid
		conn                      grid.Connectivity
		tileR, tileC              int
		islands, unions, maxGroup int
	}{
		{"full3", grid.MustParse(arts[0]), four, 2, 3, 1, 1, 1},
		{"full3", grid.MustParse(arts[0]), eight, 4, 4, 1, 0, 1},
		{"w", grid.MustParse(arts[1]), four, 2, 3, 4, 2, 2},
		{"w", grid.MustParse(arts[1]), four, 4, 4, 4, 1, 4},
		{"w", grid.MustParse(arts[1]), eight, 2, 3, 1, 4, 2},
		{"w", grid.MustParse(arts[1]), eight, 4, 4, 1, 1, 2},
		{"cornercase", grid.MustParse(arts[2]), four, 2, 3, 1, 3, 2},
		{"cornercase", grid.MustParse(arts[2]), four, 4, 4, 1, 0, 3},
		{"cornercase", grid.MustParse(arts[2]), eight, 4, 4, 1, 0, 2},
		{"spiral", grid.MustParse(arts[3]), four, 2, 3, 1, 12, 2},
		{"spiral", grid.MustParse(arts[3]), eight, 4, 4, 1, 7, 3},
		{"full16", full, four, 4, 4, 1, 15, 1},
		{"ring", ring, four, 4, 4, 1, 7, 1},
		{"ring", ring, eight, 4, 4, 1, 7, 1},
		{"dense31x29", dense, four, 4, 6, 12, 66, 5},
		{"dense31x29", dense, four, 8, 8, 12, 36, 12},
		{"dense31x29", dense, eight, 4, 6, 12, 66, 4},
		{"dense31x29", dense, eight, 8, 8, 12, 36, 7},
		{"checker32", checker, four, 8, 8, 512, 0, 32},
	}
	for _, tc := range cases {
		res, err := LabelTiled(tc.g, TiledOptions{Connectivity: tc.conn, TileRows: tc.tileR, TileCols: tc.tileC})
		if err != nil {
			t.Fatalf("%s %v %dx%d: %v", tc.name, tc.conn, tc.tileR, tc.tileC, err)
		}
		if res.Islands != tc.islands || res.BoundaryUnions != tc.unions || res.MaxTileGroups != tc.maxGroup {
			t.Errorf("%s %v %dx%d: islands/unions/maxGroups = %d/%d/%d, want %d/%d/%d",
				tc.name, tc.conn, tc.tileR, tc.tileC,
				res.Islands, res.BoundaryUnions, res.MaxTileGroups, tc.islands, tc.unions, tc.maxGroup)
		}
	}
}

// The headline property the tiling buys: per-tile merge-table demand is
// bounded by the TILE size regardless of image size.
func TestTiledBoundsMergeTableGrowth(t *testing.T) {
	for _, side := range []int{16, 32, 64} {
		g := grid.New(side, side)
		// Checkerboard: the 4-way worst case for provisional labels.
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if (r+c)%2 == 0 {
					g.Set(r, c, 1)
				}
			}
		}
		res, err := LabelTiled(g, TiledOptions{TileRows: 8, TileCols: 8})
		if err != nil {
			t.Fatal(err)
		}
		bound := SizeFor(8, 8, grid.FourWay) // 32, independent of side
		if res.MaxTileGroups > bound {
			t.Fatalf("side %d: MaxTileGroups %d exceeds tile bound %d", side, res.MaxTileGroups, bound)
		}
		if res.Islands != side*side/2 {
			t.Fatalf("side %d: islands = %d, want %d", side, res.Islands, side*side/2)
		}
	}
}

// Property: tiled labeling is isomorphic to flood fill for random images,
// tile shapes, and both connectivities — including tiles that do not divide
// the image evenly.
func TestTiledGoldenProperty(t *testing.T) {
	golden := labeling.FloodFill{}
	f := func(cells [143]byte, tr, tc uint8) bool {
		g := grid.New(11, 13)
		for i, b := range cells {
			if b%2 == 0 {
				g.Flat()[i] = grid.Value(b%9) + 1
			}
		}
		tileR := int(tr)%6 + 1
		tileC := int(tc)%6 + 1
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			want, err := golden.Label(g, conn)
			if err != nil {
				return false
			}
			res, err := LabelTiled(g, TiledOptions{
				Connectivity: conn, TileRows: tileR, TileCols: tileC,
			})
			if err != nil || !res.Labels.Isomorphic(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
