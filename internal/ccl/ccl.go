package ccl

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Mode selects how label equivalences are recorded and resolved.
type Mode int

const (
	// ModeFixed (the default) records equivalences as root-chasing unions,
	// preserving the 1.5-pass structure while handling every transitive
	// chain correctly.
	ModeFixed Mode = iota
	// ModePaper is the published algorithm: raw minimum-update of merge-table
	// entries during the scan (Fig 6) and ascending double-dereference
	// resolution (§4.3). It exhibits the corner case disclosed in §6 on
	// certain concave patterns — primarily under 4-way connectivity, but
	// (a reproduction finding, see EXPERIMENTS.md) adversarial patterns
	// trigger it under 8-way as well; the paper's "does not arise in 8-way"
	// holds only for the instrument's representative island shapes.
	ModePaper
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePaper:
		return "paper"
	case ModeFixed:
		return "fixed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a labeling run. These correspond to the design's
// compile-time switches: EIGHTWAY_NEIGHBORS selects connectivity and the
// merge-table sizing macro sets capacity.
type Options struct {
	// Connectivity is 4-way or 8-way (default FourWay, like the paper's
	// primary CTA use case).
	Connectivity grid.Connectivity
	// Mode selects the published or the corrected equivalence handling
	// (default ModeFixed; use ModePaper to reproduce the paper bit-for-bit).
	Mode Mode
	// MergeTableCap overrides the merge-table capacity. Zero means
	// "sufficient for the input" (SizeFor). Set to SizeForPaper(r, c) to
	// reproduce the paper's sizing.
	MergeTableCap int
	// CompactLabels renumbers final labels to 1..K in raster order.
	// When false, final labels are the merge-table root group numbers.
	CompactLabels bool
}

func (o Options) withDefaults() Options {
	if o.Connectivity == 0 {
		o.Connectivity = grid.FourWay
	}
	return o
}

// Result carries everything the 1.5-pass run produced: the final labels, the
// provisional labels from the first pass, and the resolved merge table. The
// extra detail exists because the optimization study (internal/design) and
// the worked examples need to show intermediate state, exactly as Fig 5 does.
type Result struct {
	// Labels is the final per-pixel label assignment.
	Labels *grid.Labels
	// Provisional is the label assignment after the raster scan, before
	// merge-table resolution (the state shown in Fig 5f).
	Provisional *grid.Labels
	// MergeTable is the resolved merge table.
	MergeTable *MergeTable
	// Groups is the number of provisional groups allocated.
	Groups int
	// Islands is the number of distinct final components.
	Islands int
}

// Label runs 1.5-pass CCL over g and returns the labeling result.
//
// It returns an error only if the merge table overflows, which cannot happen
// unless Options.MergeTableCap is set below SizeFor(rows, cols, conn).
func Label(g *grid.Grid, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if !opt.Connectivity.Valid() {
		return nil, fmt.Errorf("ccl: invalid connectivity %d", int(opt.Connectivity))
	}
	capacity := opt.MergeTableCap
	if capacity == 0 {
		capacity = SizeFor(g.Rows(), g.Cols(), opt.Connectivity)
	}
	mt := NewMergeTable(capacity)
	prov := grid.NewLabels(g.Rows(), g.Cols())

	if err := scan(g, prov, mt, opt); err != nil {
		return nil, err
	}
	mt.Resolve()

	final, islands := finalize(prov, mt, opt)
	return &Result{
		Labels:      final,
		Provisional: prov,
		MergeTable:  mt,
		Groups:      mt.Len(),
		Islands:     islands,
	}, nil
}

// finalize produces the final label output (§4.4) from a resolved merge
// table: index the table directly with each provisional label; no second scan
// of the pixel data.
func finalize(prov *grid.Labels, mt *MergeTable, opt Options) (*grid.Labels, int) {
	final := grid.NewLabels(prov.Rows(), prov.Cols())
	for i, n := 0, prov.Pixels(); i < n; i++ {
		final.SetFlat(i, mt.Lookup(prov.AtFlat(i)))
	}
	islands := len(mt.Roots())
	if opt.Mode == ModePaper {
		// In the corner case some roots become unreachable through Lookup
		// only in the other direction (extra roots survive); count what the
		// output actually contains.
		islands = final.Count()
	}
	if opt.CompactLabels {
		islands = final.Compact()
	}
	return final, islands
}

// scan performs the first pass: raster order, provisional labels, merge-table
// updates. It is shared by both modes; only the equivalence-recording rule
// differs.
func scan(g *grid.Grid, prov *grid.Labels, mt *MergeTable, opt Options) error {
	offsets := opt.Connectivity.ScanNeighbors()
	rows, cols := g.Rows(), g.Cols()
	// Scratch for the (at most 4) scanned-neighbor labels of one pixel.
	var neigh [4]grid.Label
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if !g.Lit(r, c) {
				continue
			}
			nn := 0
			minL := grid.Label(0)
			for _, o := range offsets {
				nr, nc := r+o.DR, c+o.DC
				if nr < 0 || nc < 0 || nc >= cols {
					continue
				}
				l := prov.At(nr, nc)
				if l == 0 {
					continue
				}
				neigh[nn] = l
				nn++
				if minL == 0 || l < minL {
					minL = l
				}
			}
			if nn == 0 {
				// No lit scanned neighbors: open a new group (Example 4.1).
				l, err := mt.Alloc()
				if err != nil {
					return fmt.Errorf("%w at pixel (%d,%d): capacity %d insufficient (4-way worst case needs SizeFor)", err, r, c, mt.Cap())
				}
				prov.Set(r, c, l)
				continue
			}
			// Assign the minimum neighbor label (Example 4.2) and record
			// equivalences for every differing neighbor.
			prov.Set(r, c, minL)
			for i := 0; i < nn; i++ {
				if neigh[i] == minL {
					continue
				}
				if opt.Mode == ModeFixed {
					mt.Union(neigh[i], minL)
				} else {
					mt.Record(neigh[i], minL)
				}
			}
		}
	}
	return nil
}
