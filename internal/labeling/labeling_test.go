package labeling

import (
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// labelers are the package's two labelers under one signature, golden first.
var labelers = []struct {
	name  string
	label func(*grid.Grid, grid.Connectivity) (*grid.Labels, error)
}{
	{"floodfill", FloodFill{}.Label},
	{"flat-table", func(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, error) {
		l, _, err := FlatTable(g, conn)
		return l, err
	}},
}

var fixtures = []struct {
	name  string
	art   string
	want4 int // component count, 4-way
	want8 int // component count, 8-way
}{
	{"empty", "...\n...\n...", 0, 0},
	{"single", "...\n.#.\n...", 1, 1},
	{"full", "###\n###\n###", 1, 1},
	{"diagonal", "#..\n.#.\n..#", 3, 1},
	{"anti-diagonal", "..#\n.#.\n#..", 3, 1},
	{"two-blobs", "##..\n##..\n..##\n..##", 2, 1},
	{"separate", "#.#\n...\n#.#", 4, 4},
	{"u-shape", "#.#\n#.#\n###", 1, 1},
	{"ring", "###\n#.#\n###", 1, 1},
	{"checkerboard", "#.#.\n.#.#\n#.#.\n.#.#", 8, 1},
	{"horizontal-line", "####", 1, 1},
	{"vertical-line", "#\n#\n#\n#", 1, 1},
	{"single-pixel-grid", "#", 1, 1},
	{"dark-single", ".", 0, 0},
	{"staircase", "#....\n##...\n.##..\n..##.\n...##", 1, 1},
	{"w-shape", "#...#\n#.#.#\n#.#.#\n##.##", 3, 1},
	{
		// The merge-heavy pattern of Fig 5's flavor: multiple fingers joining
		// at the bottom, creating transitive merge chains.
		"comb",
		`
		#.#.#.#.#.
		#.#.#.#.#.
		##########
		`,
		1, 1,
	},
	{
		// Spiral: a single 4-way component requiring many provisional groups.
		"spiral",
		`
		#######
		......#
		#####.#
		#...#.#
		#.#.#.#
		#.###.#
		#.....#
		#######
		`,
		1, 1,
	},
	{
		// Diagonal stripes: many 4-way components, fewer 8-way.
		"stripes",
		`
		#..#..
		.#..#.
		..#..#
		#..#..
		`,
		8, 3,
	},
}

func TestFixtureComponentCounts(t *testing.T) {
	for _, lab := range labelers {
		for _, fx := range fixtures {
			g := grid.MustParse(fx.art)
			for _, tc := range []struct {
				conn grid.Connectivity
				want int
			}{{grid.FourWay, fx.want4}, {grid.EightWay, fx.want8}} {
				labels, err := lab.label(g, tc.conn)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", lab.name, fx.name, tc.conn, err)
				}
				if got := labels.Count(); got != tc.want {
					t.Errorf("%s/%s/%v: %d components, want %d\n%s\n%s",
						lab.name, fx.name, tc.conn, got, tc.want, g, labels)
				}
			}
		}
	}
}

func TestAllAgreeWithGoldenOnFixtures(t *testing.T) {
	golden := FloodFill{}
	for _, fx := range fixtures {
		g := grid.MustParse(fx.art)
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			want, err := golden.Label(g, conn)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := FlatTable(g, conn)
			if err != nil {
				t.Fatalf("flat-table/%s/%v: %v", fx.name, conn, err)
			}
			if !got.Isomorphic(want) {
				t.Errorf("flat-table/%s/%v: not isomorphic to flood fill\ngot:\n%s\nwant:\n%s",
					fx.name, conn, got, want)
			}
		}
	}
}

func TestInvalidConnectivity(t *testing.T) {
	g := grid.MustParse("#")
	for _, lab := range labelers {
		if _, err := lab.label(g, grid.Connectivity(5)); err == nil {
			t.Errorf("%s: invalid connectivity must error", lab.name)
		}
	}
}

func TestLabelsArePositiveAndCoverLitPixels(t *testing.T) {
	g := grid.MustParse("##.#\n.#..\n#..#")
	for _, lab := range labelers {
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			labels, err := lab.label(g, conn)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < g.Rows(); r++ {
				for c := 0; c < g.Cols(); c++ {
					l := labels.At(r, c)
					if g.Lit(r, c) && l <= 0 {
						t.Fatalf("%s/%v: lit pixel (%d,%d) has label %d", lab.name, conn, r, c, l)
					}
					if !g.Lit(r, c) && l != 0 {
						t.Fatalf("%s/%v: dark pixel (%d,%d) has label %d", lab.name, conn, r, c, l)
					}
				}
			}
		}
	}
}

// randomGrid builds a deterministic pseudo-random grid from a byte matrix,
// with roughly the given lit permille.
func randomGrid(cells []byte, rows, cols int, litPermille int) *grid.Grid {
	g := grid.New(rows, cols)
	for i := 0; i < rows*cols && i < len(cells); i++ {
		if int(cells[i])*1000/256 < litPermille {
			g.Flat()[i] = grid.Value(cells[i]) + 1
		}
	}
	return g
}

// Property: the flat table is label-isomorphic to flood fill on random
// grids, across densities and both connectivities.
func TestAgreementProperty(t *testing.T) {
	golden := FloodFill{}
	for _, density := range []int{100, 300, 500, 700, 900} {
		density := density
		f := func(cells [96]byte) bool {
			g := randomGrid(cells[:], 8, 12, density)
			for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
				want, err := golden.Label(g, conn)
				if err != nil {
					return false
				}
				got, _, err := FlatTable(g, conn)
				if err != nil || !got.Isomorphic(want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("density %d: %v", density, err)
		}
	}
}

// Property: 4-way components refine 8-way components — every 4-way component
// lies entirely inside one 8-way component.
func TestRefinementProperty(t *testing.T) {
	golden := FloodFill{}
	f := func(cells [96]byte) bool {
		g := randomGrid(cells[:], 8, 12, 500)
		l4, err := golden.Label(g, grid.FourWay)
		if err != nil {
			return false
		}
		l8, err := golden.Label(g, grid.EightWay)
		if err != nil {
			return false
		}
		to8 := map[grid.Label]grid.Label{}
		for i := 0; i < g.Pixels(); i++ {
			a, b := l4.AtFlat(i), l8.AtFlat(i)
			if (a == 0) != (b == 0) {
				return false
			}
			if a == 0 {
				continue
			}
			if prev, ok := to8[a]; ok && prev != b {
				return false // one 4-way component spans two 8-way components
			}
			to8[a] = b
		}
		// And 8-way can never have more components than 4-way.
		return l8.Count() <= l4.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: labeling is invariant under value scaling (only litness matters).
func TestValueInvarianceProperty(t *testing.T) {
	golden := FloodFill{}
	f := func(cells [48]byte, scale uint8) bool {
		g := randomGrid(cells[:], 6, 8, 400)
		scaled := g.Clone()
		k := grid.Value(scale%7) + 2
		for i, v := range scaled.Flat() {
			scaled.Flat()[i] = v * k
		}
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			a, err1 := golden.Label(g, conn)
			b, err2 := golden.Label(scaled, conn)
			if err1 != nil || err2 != nil || !a.Equal(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
