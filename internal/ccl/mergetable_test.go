package ccl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

func allocN(t *testing.T, mt *MergeTable, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		l, err := mt.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if int(l) != i {
			t.Fatalf("Alloc #%d = %d", i, l)
		}
	}
}

func TestSizeForPaper(t *testing.T) {
	// §5.5: MERGETABLE_SIZE = (ROW+1)/2 × (COL+1)/2.
	cases := []struct{ r, c, want int }{
		{8, 10, 20}, {16, 16, 64}, {24, 24, 144},
		{32, 32, 256}, {43, 43, 484}, {64, 64, 1024},
	}
	for _, tc := range cases {
		if got := SizeForPaper(tc.r, tc.c); got != tc.want {
			t.Errorf("SizeForPaper(%d,%d) = %d, want %d", tc.r, tc.c, got, tc.want)
		}
	}
}

func TestSizeFor(t *testing.T) {
	// 8-way matches the paper; 4-way needs the checkerboard worst case.
	if got := SizeFor(8, 10, grid.EightWay); got != 20 {
		t.Errorf("SizeFor 8-way = %d, want 20", got)
	}
	if got := SizeFor(8, 10, grid.FourWay); got != 40 {
		t.Errorf("SizeFor 4-way = %d, want 40 (checkerboard)", got)
	}
	if got := SizeFor(3, 3, grid.FourWay); got != 5 {
		t.Errorf("SizeFor(3,3) 4-way = %d, want 5", got)
	}
}

func TestAllocSelfPointing(t *testing.T) {
	mt := NewMergeTable(4)
	allocN(t, mt, 3)
	for i := grid.Label(1); i <= 3; i++ {
		if mt.entries[i] != i {
			t.Errorf("fresh group %d entry = %d, want self", i, mt.entries[i])
		}
	}
	if mt.entries[4] != 0 {
		t.Error("unallocated group must read 0 (does not exist)")
	}
	if mt.Len() != 3 || mt.Cap() != 4 {
		t.Errorf("Len/Cap = %d/%d, want 3/4", mt.Len(), mt.Cap())
	}
}

func TestAllocOverflow(t *testing.T) {
	mt := NewMergeTable(2)
	allocN(t, mt, 2)
	if _, err := mt.Alloc(); !errors.Is(err, ErrMergeTableFull) {
		t.Fatalf("overflow err = %v, want ErrMergeTableFull", err)
	}
}

func TestRecordTakesMinimum(t *testing.T) {
	// §4.2: entries update to the minimum of neighbor label and existing
	// value — Example 4.4's protection against overwriting smaller targets.
	mt := NewMergeTable(10)
	allocN(t, mt, 10)
	mt.Record(9, 7)
	if mt.entries[9] != 7 {
		t.Fatalf("mt[9] = %d, want 7", mt.entries[9])
	}
	// Later attempt to point 9 at a LARGER value must not overwrite.
	mt.Record(9, 8)
	if mt.entries[9] != 7 {
		t.Fatalf("mt[9] = %d after Record(9,8), want 7 kept", mt.entries[9])
	}
	// A smaller value does overwrite (this is where the §6 corner case can
	// lose the 7-equivalence — that behaviour is intentional here).
	mt.Record(9, 3)
	if mt.entries[9] != 3 {
		t.Fatalf("mt[9] = %d after Record(9,3), want 3", mt.entries[9])
	}
}

func TestRecordIgnoresNonexistent(t *testing.T) {
	mt := NewMergeTable(5)
	allocN(t, mt, 2)
	mt.Record(4, 1) // group 4 does not exist
	if mt.entries[4] != 0 {
		t.Fatal("Record must not create groups")
	}
	mt.Record(0, 1)
	mt.Record(-3, 1)
	mt.Record(99, 1) // out of range: no panic
}

func TestResolveCollapsesChain(t *testing.T) {
	// Example 4.3/4.5: transitive chains collapse because ascending order
	// resolves targets before their dependents.
	mt := NewMergeTable(16)
	allocN(t, mt, 16)
	mt.Record(5, 4)
	mt.Record(8, 5)
	mt.Record(13, 4)
	mt.Record(16, 8)
	mt.Resolve()
	for _, g := range []grid.Label{4, 5, 8, 13, 16} {
		if mt.Lookup(g) != 4 {
			t.Errorf("Lookup(%d) = %d, want 4", g, mt.Lookup(g))
		}
	}
	roots := mt.Roots()
	for _, r := range roots {
		switch r {
		case 5, 8, 13, 16:
			t.Errorf("group %d still a root after Resolve", r)
		}
	}
}

func TestResolveStopsAtZero(t *testing.T) {
	// §4.3: resolution proceeds "until a zero-value entry ... is reached".
	mt := NewMergeTable(10)
	allocN(t, mt, 3)
	mt.Record(3, 1)
	mt.Resolve()
	if mt.Lookup(3) != 1 {
		t.Fatal("allocated entries must resolve")
	}
	if mt.entries[5] != 0 {
		t.Fatal("entries past the first zero must stay untouched")
	}
}

func TestResolveIdempotent(t *testing.T) {
	mt := NewMergeTable(12)
	allocN(t, mt, 12)
	mt.Record(5, 4)
	mt.Record(8, 5)
	mt.Record(12, 8)
	mt.Resolve()
	snap := append([]grid.Label(nil), mt.entries[1:mt.next]...)
	mt.Resolve()
	for i, v := range mt.entries[1:mt.next] {
		if v != snap[i] {
			t.Fatalf("Resolve not idempotent at %d: %d vs %d", i+1, v, snap[i])
		}
	}
}

func TestUnionChasesRoots(t *testing.T) {
	// The corrected update: Union(7, 4) when mt[7] already points to 6 must
	// keep 6, 7, and 4 together — the exact shape the §6 corner case loses.
	mt := NewMergeTable(8)
	allocN(t, mt, 8)
	mt.Union(7, 6)
	mt.Union(7, 4)
	mt.Resolve()
	for _, g := range []grid.Label{4, 6, 7} {
		if mt.Lookup(g) != 4 {
			t.Errorf("Lookup(%d) = %d, want 4", g, mt.Lookup(g))
		}
	}
}

func TestLookupBackground(t *testing.T) {
	mt := NewMergeTable(3)
	if mt.Lookup(0) != 0 {
		t.Fatal("background must map to background")
	}
}

func TestStringShape(t *testing.T) {
	mt := NewMergeTable(3)
	allocN(t, mt, 2)
	s := mt.String()
	if !strings.Contains(s, "\n") {
		t.Fatalf("String should have two rows, got %q", s)
	}
}

// Property: after Union-based construction and Resolve, Lookup is a
// fixed point (Lookup(Lookup(x)) == Lookup(x)) and roots are class minima.
func TestResolveFixedPointProperty(t *testing.T) {
	const n = 24
	f := func(pairs [40][2]uint8) bool {
		mt := NewMergeTable(n)
		for i := 0; i < n; i++ {
			if _, err := mt.Alloc(); err != nil {
				return false
			}
		}
		for _, p := range pairs {
			a := grid.Label(p[0]%n) + 1
			b := grid.Label(p[1]%n) + 1
			mt.Union(a, b)
		}
		mt.Resolve()
		for i := grid.Label(1); i <= n; i++ {
			r := mt.Lookup(i)
			if r < 1 || r > i {
				return false // entries must point downward
			}
			if mt.Lookup(r) != r {
				return false // not a fixed point
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: entries always point to a label ≤ their index during the scan
// update rules (minimum propagation invariant from §4.2).
func TestDownwardPointerProperty(t *testing.T) {
	const n = 16
	f := func(ops [30][2]uint8, useUnion bool) bool {
		mt := NewMergeTable(n)
		for i := 0; i < n; i++ {
			mt.Alloc()
		}
		for _, p := range ops {
			a := grid.Label(p[0]%n) + 1
			b := grid.Label(p[1]%n) + 1
			if a < b {
				a, b = b, a
			}
			if a == b {
				continue
			}
			if useUnion {
				mt.Union(a, b)
			} else {
				mt.Record(a, b)
			}
		}
		for i := grid.Label(1); i <= n; i++ {
			if e := mt.entries[i]; e < 1 || e > i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
