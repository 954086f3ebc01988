package labeling

import (
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// members walks the equivalence list holding x, from its representative.
func members(ft *flat, x grid.Label) []grid.Label {
	var out []grid.Label
	for m := ft.rl[x]; m != 0; m = ft.next[m] {
		out = append(out, m)
	}
	return out
}

func TestFlatBasics(t *testing.T) {
	ft := newFlat(10)
	a, _ := ft.MakeSet()
	b, _ := ft.MakeSet()
	c, _ := ft.MakeSet()
	if ft.Find(a) != a || ft.Find(b) != b {
		t.Fatal("fresh labels must self-represent")
	}
	if !ft.Union(c, b) {
		t.Fatal("union of distinct classes must report true")
	}
	if ft.Find(c) != b {
		t.Fatalf("Find(c) = %d, want %d", ft.Find(c), b)
	}
	if ft.Union(b, c) {
		t.Fatal("repeat union must report false")
	}
	if ft.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ft.Len())
	}
}

func TestFlatAlwaysResolved(t *testing.T) {
	// The defining property: rl[x] is the final representative after ANY
	// sequence of unions, with no chasing. Build a chain worst case.
	ft := newFlat(100)
	var ls []grid.Label
	for i := 0; i < 50; i++ {
		l, _ := ft.MakeSet()
		ls = append(ls, l)
	}
	// Merge in reverse, creating the longest transitive chains.
	for i := 48; i >= 0; i-- {
		ft.Union(ls[i+1], ls[i])
	}
	for _, l := range ls {
		if got := ft.Find(l); got != ls[0] {
			t.Fatalf("Find(%d) = %d, want %d — flat table not fully resolved", l, got, ls[0])
		}
	}
	if got := len(members(ft, ls[7])); got != 50 {
		t.Fatalf("list holds %d labels, want 50", got)
	}
}

func TestFlatMembersOrderContainsAll(t *testing.T) {
	ft := newFlat(10)
	a, _ := ft.MakeSet()
	b, _ := ft.MakeSet()
	c, _ := ft.MakeSet()
	ft.Union(a, c) // c's list absorbed into a
	ft.Union(b, a) // b's list absorbed into a
	ms := members(ft, b)
	if len(ms) != 3 {
		t.Fatalf("members = %v, want 3 labels", ms)
	}
	seen := map[grid.Label]bool{}
	for _, m := range ms {
		seen[m] = true
	}
	if !seen[a] || !seen[b] || !seen[c] {
		t.Fatalf("members = %v, want {a,b,c}", ms)
	}
}

func TestFlatCapacity(t *testing.T) {
	ft := newFlat(1)
	ft.MakeSet()
	if _, err := ft.MakeSet(); err == nil {
		t.Fatal("exceeding capacity must error")
	}
}

// Property: after any random union sequence every label's representative is
// the minimum label of its class, checked against a naive label array in
// which a merge rewrites every member to the smaller representative.
func TestMinRepresentativeProperty(t *testing.T) {
	const n = 16
	f := func(pairs [24][2]uint8) bool {
		fl := newFlat(n)
		ref := make([]grid.Label, n+1) // ref[0] unused: labels are 1..n
		for i := 1; i <= n; i++ {
			fl.MakeSet()
			ref[i] = grid.Label(i)
		}
		for _, p := range pairs {
			a := grid.Label(p[0]%n) + 1
			b := grid.Label(p[1]%n) + 1
			fl.Union(a, b)
			if ra, rb := ref[a], ref[b]; ra != rb {
				lo := min(ra, rb)
				for i := range ref {
					if ref[i] == ra || ref[i] == rb {
						ref[i] = lo
					}
				}
			}
		}
		for i := grid.Label(1); i <= n; i++ {
			if fl.Find(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FlatTable is label-isomorphic to flood fill on random 8×10
// grids at one-third occupancy, under both connectivities.
func TestFlatTableMatchesFloodFill(t *testing.T) {
	golden := FloodFill{}
	f := func(cells [80]byte) bool {
		g := grid.New(8, 10)
		for i, b := range cells {
			if b%3 == 0 {
				g.Flat()[i] = grid.Value(b%7) + 1
			}
		}
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
		t.Error(err)
	}
}

// The flat table is always fully resolved, so the §6 corner case that
// splits the published merge-table design (ccl's
// TestCornerCasePaperModeSplits) stays one island here.
func TestFlatTableImmuneToCornerCase(t *testing.T) {
	g := grid.MustParse("#..#.\n#.##.\n###..")
	got, _, err := FlatTable(g, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 1 {
		t.Fatalf("flat-table islands = %d, want 1", got.Count())
	}
}

// The 8×10 4-way checkerboard is the table's worst case: 40 single-pixel
// islands fill its (rows·cols+1)/2 capacity exactly, and must not overflow.
func TestFlatTableCheckerboard(t *testing.T) {
	g := grid.New(8, 10)
	for r := 0; r < 8; r++ {
		for c := 0; c < 10; c++ {
			if (r+c)%2 == 0 {
				g.Set(r, c, 1)
			}
		}
	}
	got, _, err := FlatTable(g, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 40 {
		t.Fatalf("islands = %d, want 40", got.Count())
	}
	golden, _ := FloodFill{}.Label(g, grid.FourWay)
	if !got.Isomorphic(golden) {
		t.Fatal("flat-table wrong on checkerboard")
	}
}
