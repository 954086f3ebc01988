package grid

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	g := New(8, 10)
	if g.Rows() != 8 || g.Cols() != 10 || g.Pixels() != 80 {
		t.Fatalf("got %dx%d (%d px), want 8x10 (80 px)", g.Rows(), g.Cols(), g.Pixels())
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 10; c++ {
			if g.At(r, c) != 0 {
				t.Fatalf("new grid not zeroed at (%d,%d)", r, c)
			}
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 5}, {5, -2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestIndexFlattening(t *testing.T) {
	// §4.1: address = row*NCOLS + col.
	g := New(8, 10)
	for _, tc := range []struct{ r, c, addr int }{{0, 0, 0}, {1, 0, 10}, {3, 7, 37}, {7, 9, 79}} {
		g.Set(tc.r, tc.c, Value(tc.addr+1))
		if got := g.Flat()[tc.addr]; got != Value(tc.addr+1) {
			t.Errorf("(%d,%d) is not at flat address %d", tc.r, tc.c, tc.addr)
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	g := New(4, 3)
	g.Set(2, 1, 42)
	if got := g.At(2, 1); got != 42 {
		t.Fatalf("At(2,1) = %d, want 42", got)
	}
	if !g.Lit(2, 1) || g.Lit(0, 0) {
		t.Fatal("Lit misreports")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	g := New(2, 2)
	for _, rc := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", rc[0], rc[1])
				}
			}()
			g.At(rc[0], rc[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	g, err := FromRows([][]Value{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 2 || g.Cols() != 3 {
		t.Fatalf("got %dx%d, want 2x3", g.Rows(), g.Cols())
	}
	if g.At(1, 2) != 6 || g.At(0, 0) != 1 {
		t.Fatal("values misplaced")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := FromRows([][]Value{{1, 2}, {3}}); err == nil {
		t.Error("ragged input: want error")
	}
}

func TestFromFlat(t *testing.T) {
	data := []Value{1, 0, 0, 2}
	g, err := FromFlat(2, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(1, 1) != 2 {
		t.Fatal("FromFlat misplaced values")
	}
	// Zero-copy: mutating source mutates grid.
	data[0] = 9
	if g.At(0, 0) != 9 {
		t.Fatal("FromFlat should not copy")
	}
	if _, err := FromFlat(2, 2, []Value{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := FromFlat(0, 2, nil); err == nil {
		t.Error("zero rows: want error")
	}
}

func TestParseAndString(t *testing.T) {
	art := `
		.#.
		##.
		..#
	`
	g := MustParse(art)
	if g.Rows() != 3 || g.Cols() != 3 {
		t.Fatalf("got %dx%d, want 3x3", g.Rows(), g.Cols())
	}
	want := ".#.\n##.\n..#"
	if g.String() != want {
		t.Fatalf("String() = %q, want %q", g.String(), want)
	}
	if g.LitCount() != 4 {
		t.Fatalf("LitCount = %d, want 4", g.LitCount())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Error("empty art: want error")
	}
	if _, err := Parse(".#\n#"); err == nil {
		t.Error("ragged art: want error")
	}
}

func TestThreshold(t *testing.T) {
	g, _ := FromRows([][]Value{{5, 10, 3}})
	th := g.Threshold(5)
	if th.At(0, 0) != 5 || th.At(0, 1) != 10 || th.At(0, 2) != 0 {
		t.Fatalf("Threshold wrong: %v", th.Flat())
	}
	if g.At(0, 2) != 3 {
		t.Fatal("Threshold must not mutate the receiver")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := MustParse("##\n..")
	c := g.Clone()
	c.Set(0, 0, 0)
	if !g.Lit(0, 0) {
		t.Fatal("Clone shares storage with original")
	}
	if g.Equal(c) {
		t.Fatal("Equal should detect the difference")
	}
	if !g.Equal(g.Clone()) {
		t.Fatal("grid must equal its clone")
	}
}

func TestOccupancy(t *testing.T) {
	g := MustParse("#.\n..")
	if got := g.Occupancy(); got != 0.25 {
		t.Fatalf("Occupancy = %v, want 0.25", got)
	}
}

func TestConnectivityString(t *testing.T) {
	if FourWay.String() != "4-way" || EightWay.String() != "8-way" {
		t.Fatal("connectivity names wrong")
	}
	if !strings.Contains(Connectivity(3).String(), "3") {
		t.Fatal("invalid connectivity should print its value")
	}
	if Connectivity(3).Valid() || !FourWay.Valid() || !EightWay.Valid() {
		t.Fatal("Valid misreports")
	}
}

func TestNeighborCounts(t *testing.T) {
	if n := len(FourWay.Neighbors()); n != 4 {
		t.Errorf("4-way neighbors = %d, want 4", n)
	}
	if n := len(EightWay.Neighbors()); n != 8 {
		t.Errorf("8-way neighbors = %d, want 8", n)
	}
	if n := len(FourWay.ScanNeighbors()); n != 2 {
		t.Errorf("4-way scan neighbors = %d, want 2 (top, left)", n)
	}
	if n := len(EightWay.ScanNeighbors()); n != 4 {
		t.Errorf("8-way scan neighbors = %d, want 4 (+top-left, top-right)", n)
	}
}

func TestScanNeighborsAreAboveOrLeft(t *testing.T) {
	// Every scanned neighbor must precede the pixel in raster order.
	for _, c := range []Connectivity{FourWay, EightWay} {
		for _, o := range c.ScanNeighbors() {
			if o.DR > 0 || (o.DR == 0 && o.DC >= 0) {
				t.Errorf("%v scan neighbor %+v does not precede in raster order", c, o)
			}
		}
	}
}

func TestScanNeighborsSubsetOfNeighbors(t *testing.T) {
	for _, c := range []Connectivity{FourWay, EightWay} {
		all := make(map[Offset]bool)
		for _, o := range c.Neighbors() {
			all[o] = true
		}
		for _, o := range c.ScanNeighbors() {
			// Top-right (-1,+1) is consulted by the paper's 8-way scan and is
			// a legitimate 8-way neighbor.
			if !all[o] {
				t.Errorf("%v scan neighbor %+v not in full neighbor set", c, o)
			}
		}
	}
}

func TestLabelsBasics(t *testing.T) {
	l := NewLabels(2, 3)
	l.Set(0, 1, 4)
	l.Set(1, 2, 4)
	l.Set(1, 0, 7)
	if l.Count() != 2 {
		t.Fatalf("Count = %d, want 2", l.Count())
	}
	d := l.Distinct()
	if len(d) != 2 || d[0] != 4 || d[1] != 7 {
		t.Fatalf("Distinct = %v, want [4 7]", d)
	}
}

func TestLabelsCompact(t *testing.T) {
	l := NewLabels(1, 4)
	l.SetFlat(0, 9)
	l.SetFlat(2, 4)
	l.SetFlat(3, 9)
	k := l.Compact()
	if k != 2 {
		t.Fatalf("Compact = %d, want 2", k)
	}
	want := []Label{1, 0, 2, 1}
	for i, w := range want {
		if l.AtFlat(i) != w {
			t.Fatalf("after Compact labels = %v, want %v", l.Flat(), want)
		}
	}
}

func TestIsomorphic(t *testing.T) {
	a := MustParseLabels("112\n.22")
	b := MustParseLabels("775\n.55")
	if !a.Isomorphic(b) {
		t.Fatal("renamed labels should be isomorphic")
	}
	c := MustParseLabels("111\n.11") // merges the two components
	if a.Isomorphic(c) {
		t.Fatal("different partitions must not be isomorphic")
	}
	d := MustParseLabels("11.\n.22") // different background
	if a.Isomorphic(d) {
		t.Fatal("different background must not be isomorphic")
	}
	e := MustParseLabels("122\n.22") // splits a component
	if a.Isomorphic(e) {
		t.Fatal("split component must not be isomorphic")
	}
	// Non-injective mapping in the other direction: a maps 1->7,2->5 fine,
	// but f maps two labels onto one of a's.
	f := MustParseLabels("112\n.21")
	if f.Isomorphic(a) {
		t.Fatal("non-bijective mapping must fail")
	}
}

func TestIsomorphicDimensionMismatch(t *testing.T) {
	a := NewLabels(2, 2)
	b := NewLabels(2, 3)
	if a.Isomorphic(b) || a.Equal(b) {
		t.Fatal("dimension mismatch must not compare equal/isomorphic")
	}
}

func TestLabelsStringRoundTrip(t *testing.T) {
	l := MustParseLabels("1.2\na.Z")
	got, err := ParseLabels(l.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Fatalf("round trip failed:\n%s\nvs\n%s", l, got)
	}
	if l.At(1, 0) != 10 || l.At(1, 2) != 61 {
		t.Fatal("glyph decoding wrong for a/Z")
	}
}

func TestParseLabelsErrors(t *testing.T) {
	if _, err := ParseLabels(""); err == nil {
		t.Error("empty: want error")
	}
	if _, err := ParseLabels("1!\n11"); err == nil {
		t.Error("bad glyph: want error")
	}
	if _, err := ParseLabels("11\n1"); err == nil {
		t.Error("ragged: want error")
	}
}

func TestLabelGlyphOverflow(t *testing.T) {
	l := NewLabels(1, 1)
	l.SetFlat(0, 100)
	if l.String() != "*" {
		t.Fatalf("label 100 glyph = %q, want *", l.String())
	}
}

// Property: Compact is idempotent and preserves the partition.
func TestCompactIdempotentProperty(t *testing.T) {
	f := func(seedRows [6][7]uint8) bool {
		l := NewLabels(6, 7)
		for r := 0; r < 6; r++ {
			for c := 0; c < 7; c++ {
				l.Set(r, c, Label(seedRows[r][c]%5)) // labels 0..4
			}
		}
		clone := func() *Labels {
			c := NewLabels(6, 7)
			copy(c.Flat(), l.Flat())
			return c
		}
		orig := clone()
		k1 := l.Compact()
		if !l.Isomorphic(orig) {
			return false
		}
		second := clone()
		k2 := second.Compact()
		return k1 == k2 && second.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips the lit mask.
func TestGridStringParseRoundTripProperty(t *testing.T) {
	f := func(cells [5][5]bool) bool {
		g := New(5, 5)
		for r := 0; r < 5; r++ {
			for c := 0; c < 5; c++ {
				if cells[r][c] {
					g.Set(r, c, 1)
				}
			}
		}
		back, err := Parse(g.String())
		if err != nil {
			return false
		}
		return back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
