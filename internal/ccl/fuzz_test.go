package ccl

import (
	"testing"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

// gridFromBytes decodes fuzz input into a bounded grid: the first two bytes
// pick dimensions in [1,16], the rest fill pixels (bit 0 decides litness).
func gridFromBytes(data []byte) *grid.Grid {
	if len(data) < 3 {
		return nil
	}
	rows := int(data[0])%16 + 1
	cols := int(data[1])%16 + 1
	g := grid.New(rows, cols)
	for i := 0; i < rows*cols; i++ {
		b := data[2+i%(len(data)-2)]
		if (b>>(uint(i)%8))&1 == 1 {
			g.Flat()[i] = grid.Value(b%9) + 1
		}
	}
	return g
}

// FuzzLabelAgainstGolden checks, for arbitrary images: ModeFixed is
// label-isomorphic to flood fill; ModePaper refines the true partition; the
// tiled labeler matches flood fill; and nothing panics.
func FuzzLabelAgainstGolden(f *testing.F) {
	f.Add([]byte{3, 5, 0xFF, 0x0F, 0xAA})
	f.Add([]byte{16, 16, 0x55, 0x33, 0x0F, 0xF0})
	f.Add([]byte("#..#.#.##.###..corner"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := gridFromBytes(data)
		if g == nil {
			return
		}
		golden := labeling.FloodFill{}
		for _, conn := range []grid.Connectivity{grid.FourWay, grid.EightWay} {
			want, err := golden.Label(g, conn)
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := Label(g, Options{Connectivity: conn, Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			if !fixed.Labels.Isomorphic(want) {
				t.Fatalf("ModeFixed diverged from golden on %v:\n%s", conn, g)
			}
			paper, err := Label(g, Options{Connectivity: conn, Mode: ModePaper})
			if err != nil {
				t.Fatal(err)
			}
			// Refinement: paper-mode components never span two true ones.
			to := map[grid.Label]grid.Label{}
			for i := 0; i < g.Pixels(); i++ {
				a, b := paper.Labels.AtFlat(i), want.AtFlat(i)
				if (a == 0) != (b == 0) {
					t.Fatalf("ModePaper changed the lit set on %v", conn)
				}
				if a == 0 {
					continue
				}
				if prev, ok := to[a]; ok && prev != b {
					t.Fatalf("ModePaper merged distinct components on %v:\n%s", conn, g)
				}
				to[a] = b
			}
			tiled, err := LabelTiled(g, TiledOptions{Connectivity: conn, TileRows: 3, TileCols: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !tiled.Labels.Isomorphic(want) {
				t.Fatalf("tiled diverged from golden on %v:\n%s", conn, g)
			}
		}
	})
}

// FuzzMergeTableOps checks the merge table never breaks its downward-pointer
// invariant and Resolve stays idempotent under arbitrary operation tapes.
func FuzzMergeTableOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, tape []byte) {
		mt := NewMergeTable(32)
		for _, op := range tape {
			switch op % 3 {
			case 0:
				mt.Alloc() // may fail at capacity; fine
			case 1:
				if mt.Len() >= 2 {
					a := grid.Label(op/3)%grid.Label(mt.Len()) + 1
					b := grid.Label(op/7)%grid.Label(mt.Len()) + 1
					if a < b {
						a, b = b, a
					}
					mt.Record(a, b)
				}
			case 2:
				if mt.Len() >= 2 {
					a := grid.Label(op/3)%grid.Label(mt.Len()) + 1
					b := grid.Label(op/5)%grid.Label(mt.Len()) + 1
					mt.Union(a, b)
				}
			}
		}
		for i := grid.Label(1); int(i) <= mt.Len(); i++ {
			if e := mt.entries[i]; e < 1 || e > i {
				t.Fatalf("entry %d = %d violates downward invariant", i, e)
			}
		}
		mt.Resolve()
		snap := append([]grid.Label(nil), mt.entries[1:mt.next]...)
		mt.Resolve()
		for i, v := range mt.entries[1:mt.next] {
			if snap[i] != v {
				t.Fatal("Resolve not idempotent")
			}
		}
	})
}
