package ccl

import (
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Tiled (hierarchical) CCL — the §6 future-work direction "exploring
// hierarchical or tiled processing to limit merge table and FIFO growth".
//
// The image is split into fixed-size tiles; each tile is labeled
// independently with the 1.5-pass algorithm and a tile-local merge table
// (whose capacity depends only on the tile size, not the image size —
// bounding the BRAM the §5.5 scaling study shows growing with the array).
// Tile components then receive globally unique ids in one merge table, and a
// boundary pass unions components that touch across tile edges (including
// corners for 8-way). In hardware the tiles would be processed by replicated
// small engines; here the tile loop is sequential but the data structures
// and the work partition match.

// TiledOptions configures hierarchical labeling.
type TiledOptions struct {
	// Connectivity is 4-way or 8-way (default FourWay).
	Connectivity grid.Connectivity
	// TileRows, TileCols set the tile shape (defaults 8×8). Edge tiles may
	// be smaller when the image is not an exact multiple.
	TileRows, TileCols int
}

func (o TiledOptions) withDefaults() TiledOptions {
	if o.Connectivity == 0 {
		o.Connectivity = grid.FourWay
	}
	if o.TileRows == 0 {
		o.TileRows = 8
	}
	if o.TileCols == 0 {
		o.TileCols = 8
	}
	return o
}

// TiledResult is the output of hierarchical labeling.
type TiledResult struct {
	// Labels is the final global label assignment.
	Labels *grid.Labels
	// Islands is the number of distinct components.
	Islands int
	// Tiles is the number of tiles processed.
	Tiles int
	// MaxTileGroups is the largest per-tile merge table actually needed —
	// the resource bound the tiling buys.
	MaxTileGroups int
	// BoundaryUnions counts cross-tile merges performed.
	BoundaryUnions int
}

// LabelTiled runs hierarchical CCL over g.
func LabelTiled(g *grid.Grid, opt TiledOptions) (*TiledResult, error) {
	opt = opt.withDefaults()
	if !opt.Connectivity.Valid() {
		return nil, fmt.Errorf("ccl: invalid connectivity %d", int(opt.Connectivity))
	}
	if opt.TileRows < 1 || opt.TileCols < 1 {
		return nil, fmt.Errorf("ccl: invalid tile size %dx%d", opt.TileRows, opt.TileCols)
	}
	rows, cols := g.Rows(), g.Cols()
	out := grid.NewLabels(rows, cols)

	// Phase 1: label each tile independently with globally offset ids.
	// The per-tile component count is bounded by the 4-way worst case of
	// the tile shape, so the table capacity is exact.
	tilesR := (rows + opt.TileRows - 1) / opt.TileRows
	tilesC := (cols + opt.TileCols - 1) / opt.TileCols
	perTileCap := SizeFor(opt.TileRows, opt.TileCols, grid.FourWay)
	mt := NewMergeTable(perTileCap * tilesR * tilesC)

	maxGroups := 0
	for tr := 0; tr < tilesR; tr++ {
		for tc := 0; tc < tilesC; tc++ {
			r0 := tr * opt.TileRows
			c0 := tc * opt.TileCols
			r1 := min(r0+opt.TileRows, rows)
			c1 := min(c0+opt.TileCols, cols)
			tile := extractTile(g, r0, c0, r1, c1)
			res, err := Label(tile, Options{
				Connectivity: opt.Connectivity,
				Mode:         ModeFixed,
			})
			if err != nil {
				return nil, fmt.Errorf("ccl: tile (%d,%d): %w", tr, tc, err)
			}
			if res.Groups > maxGroups {
				maxGroups = res.Groups
			}
			// Map tile-local roots to fresh global labels.
			local := make(map[grid.Label]grid.Label)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					l := res.Labels.At(r-r0, c-c0)
					if l == 0 {
						continue
					}
					gl, ok := local[l]
					if !ok {
						var err error
						gl, err = mt.Alloc()
						if err != nil {
							return nil, fmt.Errorf("ccl: tile label pool: %w", err)
						}
						local[l] = gl
					}
					out.Set(r, c, gl)
				}
			}
		}
	}

	// Phase 2: boundary pass. For every lit pixel, union with lit forward
	// neighbors that live in a different tile. Forward offsets cover each
	// adjacent pair exactly once.
	forward := []grid.Offset{{DR: 0, DC: 1}, {DR: 1, DC: 0}}
	if opt.Connectivity == grid.EightWay {
		forward = []grid.Offset{{DR: 0, DC: 1}, {DR: 1, DC: -1}, {DR: 1, DC: 0}, {DR: 1, DC: 1}}
	}
	unions := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a := out.At(r, c)
			if a == 0 {
				continue
			}
			for _, o := range forward {
				nr, nc := r+o.DR, c+o.DC
				if nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				if sameTile(r, c, nr, nc, opt.TileRows, opt.TileCols) {
					continue
				}
				b := out.At(nr, nc)
				if b == 0 {
					continue
				}
				if ra, rb := mt.root(a), mt.root(b); ra != rb {
					mt.Union(ra, rb)
					unions++
				}
			}
		}
	}

	// Phase 3: the §4.3 ascending resolve, then output through the table.
	// Every allocated label carries pixels, so the roots are the islands.
	mt.Resolve()
	for i, n := 0, rows*cols; i < n; i++ {
		out.SetFlat(i, mt.Lookup(out.AtFlat(i)))
	}
	return &TiledResult{
		Labels:         out,
		Islands:        len(mt.Roots()),
		Tiles:          tilesR * tilesC,
		MaxTileGroups:  maxGroups,
		BoundaryUnions: unions,
	}, nil
}

// extractTile copies a sub-rectangle into its own grid.
func extractTile(g *grid.Grid, r0, c0, r1, c1 int) *grid.Grid {
	t := grid.New(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			t.Set(r-r0, c-c0, g.At(r, c))
		}
	}
	return t
}

func sameTile(r, c, nr, nc, th, tw int) bool {
	return r/th == nr/th && c/tw == nc/tw
}
