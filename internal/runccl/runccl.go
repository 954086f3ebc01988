// Package runccl implements run-based connected-component labeling for the
// software serving path.
//
// The paper's hardware design and the per-pixel reference in internal/adapt
// both pay a per-pixel cost: every pixel of the (mostly dark) camera image is
// visited once per event. Following the run-based software CCL of Lemaitre &
// Lacassagne (PAPERS.md), this package instead labels *runs* — maximal
// horizontal segments of lit pixels. Batch is the labeler, and it has one run
// extractor: an event is its lit bitmap, one bit per pixel, and the prefix
// sums of its lit pixels' values in raster order (written by the serving
// path's lit-list sink, or by ExtractEvent from a packed bitmap and a values
// image). Runs are cut from the bitmap a 64-bit word at a time with
// m &^ (m<<1) and (m<<1) &^ m, each run's value sum and column moment are two
// prefix differences, and each row links to the row above by mask — the
// overlap's segments, dilated to the diagonal corners for 8-way — in a flat
// min-root forest, with island pixel count, charge sum and Q16.16 centroid
// moments folding into the roots as they link. No labels image is ever
// materialized. Engine fixes a geometry and its bitmap layout, and labels one
// packed image at a time on a Batch of its own.
//
// The partition produced is identical to the flood fill of the per-pixel
// oracle (adapt's ServePixel backend) and to ccl.Label(ModeFixed): two lit
// pixels share an island iff they are transitively connected under the
// configured connectivity, and islands are numbered compactly 1..K in raster
// order of first appearance. FuzzRunCCLvsPixel (internal/adapt) asserts this
// equivalence on random grids.
package runccl

import (
	"fmt"
	"math"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Island is one connected component's downlink summary — the island entry
// of the serving record (adapt.IslandRecord is this type), computed with the
// same integer math as the per-pixel path so results are bit-identical.
type Island struct {
	// Label is the island id within the event: 1..K in raster order of
	// first pixel from the labelers of this package.
	Label int32
	// Pixels is the island's pixel count. 32 bits: megapixel frame
	// geometries can concentrate more than 65535 pixels in one island.
	Pixels uint32
	// Sum is the total integrated value.
	Sum int64
	// RowQ16, ColQ16 are the centroid coordinates in Q16.16 fixed point.
	RowQ16, ColQ16 int32
}

// Row returns the centroid row as a float.
func (r Island) Row() float64 { return float64(r.RowQ16) / 65536 }

// Col returns the centroid column as a float.
func (r Island) Col() float64 { return float64(r.ColQ16) / 65536 }

// Engine fixes one image geometry and connectivity: it defines the packed
// bitmap layout, makes the Batches that label under it, and labels one image
// at a time on a Batch of its own. After the first event at a given occupancy
// high-water mark, Label performs zero allocations. An Engine is not safe for
// concurrent use; give each worker its own.
type Engine struct {
	rows, cols int
	wpr        int // bitmap words per row
	eight      bool
	batch      *Batch // Label's arena
}

// NewEngine returns an engine for rows×cols images under conn.
func NewEngine(rows, cols int, conn grid.Connectivity) (*Engine, error) {
	if rows < 1 || cols < 1 || rows > math.MaxInt32/cols {
		return nil, fmt.Errorf("runccl: invalid dimensions %dx%d", rows, cols)
	}
	if !conn.Valid() {
		return nil, fmt.Errorf("runccl: invalid connectivity %d", int(conn))
	}
	e := &Engine{
		rows:  rows,
		cols:  cols,
		wpr:   (cols + 63) / 64,
		eight: conn == grid.EightWay,
	}
	e.batch = e.NewBatch()
	return e, nil
}

// BitmapLen returns the required packed-bitmap length. Each image row
// occupies ⌈Cols/64⌉ uint64 words, starting at a word boundary (bit c of the
// row lives in word c/64, bit position c%64). Bits at or beyond Cols in a
// row's last word must be zero.
func (e *Engine) BitmapLen() int { return e.rows * e.wpr }

// Pack fills bitmap (reusing its capacity) with the lit-pixel bits of the
// flat row-major values image, in the engine's layout. It is the reference
// producer for tests and non-serving callers; the serving path sets the bits
// of its Batch's bitmap from its lit lists instead.
func (e *Engine) Pack(values []grid.Value, bitmap []uint64) []uint64 {
	n := e.BitmapLen()
	if cap(bitmap) < n {
		bitmap = make([]uint64, n)
	}
	bitmap = bitmap[:n]
	for i := range bitmap {
		bitmap[i] = 0
	}
	for r := 0; r < e.rows; r++ {
		rowBase := r * e.cols
		wordBase := r * e.wpr
		for c := 0; c < e.cols; c++ {
			if values[rowBase+c] != 0 {
				bitmap[wordBase+c>>6] |= 1 << uint(c&63)
			}
		}
	}
	return bitmap
}

// Label labels the packed bitmap, accumulates per-island statistics from the
// flat row-major values image (len rows×cols; only lit pixels are read), and
// appends one Island per component to dst in compact raster order of first
// appearance. It is one event through the engine's Batch — the labeler the
// serving path uses. dst is returned grown; pass dst[:0] of a reused slice
// for the zero-allocation steady state.
func (e *Engine) Label(bitmap []uint64, values []grid.Value, dst []Island) []Island {
	if len(bitmap) != e.BitmapLen() {
		panic(fmt.Sprintf("runccl: bitmap length %d, want %d", len(bitmap), e.BitmapLen()))
	}
	if len(values) != e.rows*e.cols {
		panic(fmt.Sprintf("runccl: values length %d, want %d", len(values), e.rows*e.cols))
	}
	b := e.batch
	b.Reset()
	b.BeginEvent()
	b.ExtractEvent(bitmap, values)
	b.EndEvent()
	return b.Islands(0, dst)
}

// Q16Ratio returns round(num/den × 2^16) in Q16.16, 0 for den 0: the one
// centroid rounding of every labeler and serving sink, so their records are
// bit-identical.
func Q16Ratio(num, den int64) int32 {
	if den == 0 {
		return 0
	}
	return int32((num<<16 + den/2) / den)
}
