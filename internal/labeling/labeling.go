// Package labeling implements the reference and baseline CCL algorithms the
// paper discusses in §3, behind a common interface, so the 1.5-pass design
// can be validated and compared against the literature:
//
//   - FloodFill: breadth-first flood fill. The golden model — obviously
//     correct, used as ground truth by every test.
//   - TwoPass: the classic Rosenfeld–Pfaltz two-pass algorithm [19]:
//     provisional labels + equivalences in pass one, full relabeling scan in
//     pass two.
//   - SinglePass: Bailey–Johnston style single-pass labeling [2] that
//     resolves equivalences on the fly with a flat representative table, so
//     in hardware labels are final as the scan exits each row.
//   - FastTwoPass: He et al. style two-pass labeling [14] using the flat
//     representative-label table (package unionfind) so that the second pass
//     is a single table read per pixel. In software SinglePass and
//     FastTwoPass are the one scan FlatTable, which design's single-pass
//     variant also runs.
//   - RunBased: run-length-encoded labeling (the run-based family of He et
//     al.'s review [15]) — runs, not pixels, carry labels.
//   - ContourTracing: Chang–Chen–Lu contour tracing (the contour family of
//     [15]) — external/internal contours are walked once, interiors inherit
//     from the left.
package labeling

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/unionfind"
)

// Labeler is a connected-component labeling algorithm.
type Labeler interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Label assigns a positive label to every lit pixel of g such that two
	// lit pixels share a label iff they are connected under conn. Background
	// pixels get 0.
	Label(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, error)
}

// All returns one instance of every baseline labeler, in citation order,
// ending with the run-based and contour-tracing families from the He et al.
// review.
func All() []Labeler {
	return []Labeler{FloodFill{}, TwoPass{}, SinglePass{}, FastTwoPass{}, RunBased{}, ContourTracing{}}
}

// FloodFill is the golden model: BFS from each unvisited lit pixel.
type FloodFill struct{}

// Name implements Labeler.
func (FloodFill) Name() string { return "floodfill" }

// Label implements Labeler.
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

// TwoPass is Rosenfeld–Pfaltz [19]: pass one assigns provisional labels and
// records equivalences in a disjoint-set forest; pass two rescans the entire
// label image replacing each label by its representative.
type TwoPass struct{}

// Name implements Labeler.
func (TwoPass) Name() string { return "two-pass" }

// Label implements Labeler.
func (TwoPass) Label(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, error) {
	if !conn.Valid() {
		return nil, fmt.Errorf("labeling: invalid connectivity %d", int(conn))
	}
	rows, cols := g.Rows(), g.Cols()
	out := grid.NewLabels(rows, cols)
	uf := unionfind.NewForest((rows*cols + 1) / 2)
	offsets := conn.ScanNeighbors()

	// Pass 1: provisional labels + equivalences.
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
				if l := out.At(nr, nc); l != 0 && (minL == 0 || l < minL) {
					minL = l
				}
			}
			if minL == 0 {
				l, err := uf.MakeSet()
				if err != nil {
					return nil, fmt.Errorf("labeling: two-pass: %w", err)
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
				if l := out.At(nr, nc); l != 0 && l != minL {
					uf.Union(l, minL)
				}
			}
		}
	}

	// Pass 2: full relabeling scan — the redundant traversal the paper's
	// 1.5-pass design avoids.
	for i, n := 0, rows*cols; i < n; i++ {
		if l := out.AtFlat(i); l != 0 {
			out.SetFlat(i, uf.Find(l))
		}
	}
	return out, nil
}

// FastTwoPass is He et al. [14]: same scan as TwoPass but equivalences live
// in the flat representative-label table, so the second pass is one table
// read per pixel with no pointer chasing (FlatTable).
type FastTwoPass struct{}

// Name implements Labeler.
func (FastTwoPass) Name() string { return "fast-two-pass" }

// Label implements Labeler.
func (FastTwoPass) Label(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, error) {
	out, _, err := FlatTable(g, conn)
	return out, err
}

// SinglePass is Bailey–Johnston style [2]: equivalences are resolved during
// the scan against a flat table, and labels written to the output are always
// the current representative, so no relabeling pass is needed. In software
// it is the same scan as FastTwoPass (FlatTable); the distinction the paper
// draws is hardware, where the final table read is fused into each row's
// output streaming instead of being a second loop. The control complexity
// this adds (every neighbor read must be resolved through the table, and
// merges retroactively redefine earlier labels' meaning) is the reason the
// paper calls it "challenging to manage in a pipelined FPGA implementation"
// and adopts 1.5-pass instead.
type SinglePass struct{}

// Name implements Labeler.
func (SinglePass) Name() string { return "single-pass" }

// Label implements Labeler.
func (SinglePass) Label(g *grid.Grid, conn grid.Connectivity) (*grid.Labels, error) {
	out, _, err := FlatTable(g, conn)
	return out, err
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
	flat := unionfind.NewFlat((rows*cols + 1) / 2)
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
					rep := flat.Find(l)
					if minL == 0 || rep < minL {
						minL = rep
					}
				}
			}
			if minL == 0 {
				l, err := flat.MakeSet()
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
					flat.Union(l, minL)
				}
			}
		}
	}

	for i, n := 0, rows*cols; i < n; i++ {
		if l := out.AtFlat(i); l != 0 {
			out.SetFlat(i, flat.Find(l))
		}
	}
	return out, flat.Len(), nil
}
