// Package labeling holds the two software labelers outside the paper's
// 1.5-pass model:
//
//   - FloodFill: breadth-first flood fill. The golden model — obviously
//     correct, used as ground truth by every test and as the per-pixel
//     serving oracle behind adapt.ServePixel.
//   - FlatTable: He et al.'s flat representative-label table scan [14], the
//     labeler behind design's single-pass variant (E11).
package labeling

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// FloodFill is the golden model: BFS from each unvisited lit pixel. Labels
// are 1..K in raster order of each component's first pixel.
type FloodFill struct{}

// Label assigns a positive label to every lit pixel of g such that two lit
// pixels share a label iff they are connected under conn. Background pixels
// get 0.
func (FloodFill) Label(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, error) {
	if !conn.Valid() {
		return nil, fmt.Errorf("labeling: invalid connectivity %d", int(conn))
	}
	rows, cols := g.Rows(), g.Cols()
	out := grid.NewLabels(rows, cols)
	offsets := conn.Neighbors()
	next := grid.Label(1)
	queue := make([]int, 0, rows*cols)
	for start := 0; start < rows*cols; start++ {
		if !g.LitFlat(start) || out.AtFlat(start) != 0 {
			continue
		}
		label := next
		next++
		out.SetFlat(start, label)
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			r, c := cur/cols, cur%cols
			for _, o := range offsets {
				nr, nc := r+o.DR, c+o.DC
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				ni := nr*cols + nc
				if g.LitFlat(ni) && out.AtFlat(ni) == 0 {
					out.SetFlat(ni, label)
					queue = append(queue, ni)
				}
			}
		}
	}
	return out, nil
}

// FlatTable is the flat representative-label table scan [14]: each lit
// pixel takes the smallest representative among its already-scanned
// neighbors (resolved through the table as they are read) or a new label,
// merges relabel the absorbed class in the table at once, and a final table
// read per pixel replaces every provisional label by its representative — a
// per-pixel read, not a raster re-scan with neighbor logic. The table keeps
// every class fully resolved at all times, so the result is correct on every
// input. It returns the labels and the number of provisional labels issued.
func FlatTable(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, int, error) {
	if !conn.Valid() {
		return nil, 0, fmt.Errorf("labeling: invalid connectivity %d", int(conn))
	}
	rows, cols := g.Rows(), g.Cols()
	out := grid.NewLabels(rows, cols)
	table := newFlat((rows*cols + 1) / 2)
	offsets := conn.ScanNeighbors()

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !g.Lit(r, c) {
				continue
			}
			minL := grid.Label(0)
			for _, o := range offsets {
				nr, nc := r+o.DR, c+o.DC
				if nr < 0 || nc < 0 || nc >= cols {
					continue
				}
				if l := out.At(nr, nc); l != 0 {
					rep := table.Find(l)
					if minL == 0 || rep < minL {
						minL = rep
					}
				}
			}
			if minL == 0 {
				l, err := table.MakeSet()
				if err != nil {
					return nil, 0, fmt.Errorf("labeling: flat-table: %w", err)
				}
				out.Set(r, c, l)
				continue
			}
			out.Set(r, c, minL)
			for _, o := range offsets {
				nr, nc := r+o.DR, c+o.DC
				if nr < 0 || nc < 0 || nc >= cols {
					continue
				}
				if l := out.At(nr, nc); l != 0 {
					table.Union(l, minL)
				}
			}
		}
	}

	for i, n := 0, rows*cols; i < n; i++ {
		if l := out.AtFlat(i); l != 0 {
			out.SetFlat(i, table.Find(l))
		}
	}
	return out, table.Len(), nil
}

// flat is He et al.'s representative-label table. rl[x] is always the
// current representative of x (no chasing needed); next/tail thread the
// members of each equivalence list so Union can relabel the absorbed list in
// one sweep.
type flat struct {
	rl   []grid.Label // representative label, always fully resolved
	next []grid.Label // next member of the equivalence list, 0 = end
	tail []grid.Label // last member of the list rooted at a representative
	cnt  grid.Label
}

// newFlat returns a flat table with room for capacity labels.
func newFlat(capacity int) *flat {
	if capacity < 1 {
		capacity = 1
	}
	return &flat{
		rl:   make([]grid.Label, capacity+1),
		next: make([]grid.Label, capacity+1),
		tail: make([]grid.Label, capacity+1),
	}
}

// MakeSet allocates the next label as a singleton equivalence list.
func (t *flat) MakeSet() (grid.Label, error) {
	if int(t.cnt)+1 >= len(t.rl) {
		return 0, fmt.Errorf("flat table capacity %d exhausted", len(t.rl)-1)
	}
	t.cnt++
	l := t.cnt
	t.rl[l] = l
	t.next[l] = 0
	t.tail[l] = l
	return l, nil
}

// Len returns the number of labels allocated.
func (t *flat) Len() int { return int(t.cnt) }

// Find returns the representative of x. It is a single array read — the
// property that makes the structure attractive in hardware.
func (t *flat) Find(x grid.Label) grid.Label { return t.rl[x] }

// Union merges the equivalence classes of a and b. The class with the larger
// representative is relabeled member-by-member to the smaller representative
// and its list is appended, so every rl entry stays fully resolved.
// It reports whether the two classes were previously distinct.
func (t *flat) Union(a, b grid.Label) bool {
	u, v := t.rl[a], t.rl[b]
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	// Relabel every member of v's list to u.
	for m := v; m != 0; m = t.next[m] {
		t.rl[m] = u
	}
	// Append v's list after u's tail.
	t.next[t.tail[u]] = v
	t.tail[u] = t.tail[v]
	return true
}
