// Package runccl implements bit-packed, run-based connected-component
// labeling for the software serving path.
//
// The paper's hardware design and the serving fast path in internal/adapt
// both pay a per-pixel cost: every pixel of the (mostly dark) camera image is
// visited once per event. Following the run-based software CCL of Lemaitre &
// Lacassagne (PAPERS.md), this package instead operates on *runs* — maximal
// horizontal segments of lit pixels — extracted word-at-a-time from a packed
// []uint64 bitmap with bits.TrailingZeros64. Adjacent-row run overlap (exact
// for 4-way, ±1-column dilation for 8-way) drives a union-find over runs, and
// island pixel count / charge sum / Q16.16 centroid moments are accumulated
// per run, so the per-event labeling cost scales with the number of lit runs
// (~occupancy) rather than the array area, and no labels image is ever
// materialized. At CTA-like 1–5% occupancy that is a 20–100× reduction in
// work on the labeling stage — the software analogue of the paper's II-driven
// pipelining, where throughput is set by content, not geometry.
//
// The partition produced is identical to the raster-scan union-find of
// adapt.ServeEvent and to ccl.Label(ModeFixed): two lit pixels share an
// island iff they are transitively connected under the configured
// connectivity, and islands are numbered compactly 1..K in raster order of
// first appearance. FuzzRunCCLvsPixel (internal/adapt) asserts this
// equivalence on random grids.
package runccl

import (
	"fmt"
	"math/bits"

	"github.com/wustl-adapt/hepccl/internal/ccl"
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

// run is one maximal horizontal segment of lit pixels. Row is implicit in
// the engine's per-row index ranges; end is exclusive.
type run struct {
	start, end int32
}

// Engine labels bit-packed binary images of one fixed geometry, reusing all
// scratch storage across calls: after the first event at a given occupancy
// high-water mark, Label performs zero allocations. An Engine is not safe
// for concurrent use; give each worker its own (as internal/server does with
// its per-shard pipelines).
type Engine struct {
	rows, cols int
	wpr        int // bitmap words per row
	eight      bool

	runs   []run
	rowOff []int32 // runs[rowOff[r]:rowOff[r+1]] = row r's runs; len rows+1
	uf     ccl.DenseUF
	remap  []int32 // run root -> compact island number
	rowM   []int64 // per-island row moment Σ row·v
	colM   []int64 // per-island col moment Σ col·v
}

// NewEngine returns an engine for rows×cols images under conn.
func NewEngine(rows, cols int, conn grid.Connectivity) (*Engine, error) {
	if rows < 1 || cols < 1 {
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
	e.rowOff = make([]int32, rows+1)
	// Pre-size the run store for a typical sparse event; Label grows it on
	// demand (amortized to zero once the workload's high-water mark is seen).
	e.runs = make([]run, 0, 4*rows)
	return e, nil
}

// WordsPerRow returns the packed-bitmap stride: each image row occupies this
// many uint64 words, starting at a word boundary (bit c of the row lives in
// word c/64, bit position c%64). Bits at or beyond Cols in a row's last word
// must be zero.
func (e *Engine) WordsPerRow() int { return e.wpr }

// BitmapLen returns the required bitmap length, rows × WordsPerRow.
func (e *Engine) BitmapLen() int { return e.rows * e.wpr }

// Rows returns the configured row count.
func (e *Engine) Rows() int { return e.rows }

// Cols returns the configured column count.
func (e *Engine) Cols() int { return e.cols }

// Pack fills bitmap (reusing its capacity) with the lit-pixel bits of the
// flat row-major values image, in the engine's layout. It is the reference
// producer for tests and non-serving callers; the serving path builds the
// bitmap inline during zero-suppression instead.
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
// appearance. dst is returned grown; pass dst[:0] of a reused slice for the
// zero-allocation steady state.
//
//hepccl:hotpath
func (e *Engine) Label(bitmap []uint64, values []grid.Value, dst []Island) []Island {
	//hepccl:coldpath
	if len(bitmap) != e.BitmapLen() {
		panic(fmt.Sprintf("runccl: bitmap length %d, want %d", len(bitmap), e.BitmapLen()))
	}
	//hepccl:coldpath
	if len(values) != e.rows*e.cols {
		panic(fmt.Sprintf("runccl: values length %d, want %d", len(values), e.rows*e.cols))
	}
	e.extract(bitmap)
	e.connect()
	return e.accumulate(values, dst)
}

// extract sweeps the bitmap word-at-a-time and emits the per-row run lists.
// Cost is O(words + runs): dark words cost one load and one compare.
func (e *Engine) extract(bitmap []uint64) {
	if e.wpr == 1 {
		e.extractNarrow(bitmap)
		return
	}
	runs := e.runs[:0]
	wpr := e.wpr
	rowOff := e.rowOff[:e.rows]
	for r := range rowOff {
		rowOff[r] = int32(len(runs))
		// Label's entry check pins len(bitmap) to rows·wpr, so the per-row
		// window is in range — a contract the compiler cannot see from here.
		//hepccl:checked
		words := bitmap[r*wpr : (r+1)*wpr]
		openStart, openEnd := int32(-1), int32(-1)
		for w, x := range words {
			base := int32(w) << 6
			for x != 0 {
				s := bits.TrailingZeros64(x)
				n := bits.TrailingZeros64(^(x >> uint(s))) // run length 1..64
				start := base + int32(s)
				end := start + int32(n)
				if start == openEnd {
					// Continues a run that reached the previous word's end.
					openEnd = end
				} else {
					if openStart >= 0 {
						runs = append(runs, run{openStart, openEnd})
					}
					openStart, openEnd = start, end
				}
				// Clear the consumed run. Go defines x<<64 == 0, so the
				// all-ones word (s=0, n=64) produces mask ^0.
				x &^= ((uint64(1) << uint(n)) - 1) << uint(s)
			}
		}
		if openStart >= 0 {
			runs = append(runs, run{openStart, openEnd})
		}
	}
	e.rowOff[e.rows] = int32(len(runs))
	e.runs = runs
}

// extractNarrow is extract specialized to images at most 64 columns wide
// (one word per row — every geometry the paper studies): runs never span
// words, so the cross-word carry and per-row reslicing disappear and each
// run costs two TrailingZeros64 and one carry-clear.
func (e *Engine) extractNarrow(bitmap []uint64) {
	runs := e.runs[:0]
	// One row per word, so tying the offsets view to the bitmap's length
	// makes the per-row store check-free.
	rowOff := e.rowOff[:len(bitmap)]
	for r, x := range bitmap {
		rowOff[r] = int32(len(runs))
		for x != 0 {
			s := bits.TrailingZeros64(x)
			// First zero at or above s = exclusive run end; for the all-ones
			// word the complement is 0 and TrailingZeros64 yields 64.
			end := bits.TrailingZeros64(^(x | (1<<uint(s) - 1)))
			runs = append(runs, run{int32(s), int32(end)})
			// Adding 1<<s carries through the run's set bits; the AND keeps
			// only the bits above it.
			x &= x + 1<<uint(s)
		}
	}
	e.rowOff[e.rows] = int32(len(runs))
	e.runs = runs
}

// connect unions vertically adjacent runs. Both rows' run lists are sorted
// and disjoint, so one two-pointer sweep per row pair suffices; a previous-row
// run can overlap several current-row runs (and vice versa), which the
// non-advancing inner scan handles.
func (e *Engine) connect() {
	runs := e.runs
	e.uf.Reset(len(runs))
	// ±1 column dilation turns 8-way corner adjacency into overlap.
	var dil int32
	if e.eight {
		dil = 1
	}
	rowOff := e.rowOff[:e.rows+1]
	if len(rowOff) < 3 {
		return // a single row has no vertical adjacency
	}
	// Three equal-length shifted views of the fence let one range bound
	// cover all three per-row loads.
	offA := rowOff[: len(rowOff)-2 : len(rowOff)-2]
	offB := rowOff[1 : len(rowOff)-1 : len(rowOff)-1]
	offC := rowOff[2:]
	for r := range offA {
		lo, hiOff := offA[r], offB[r]
		cur, curEnd := hiOff, offC[r]
		if lo == hiOff || cur == curEnd {
			continue // an empty row cannot connect its neighbors
		}
		// Row-local views: two checks per row pair here (the fence values
		// are loads the compiler cannot bound — rowOff is monotone with
		// rowOff[rows] == len(runs)) buy check-free two-pointer sweeps.
		//hepccl:checked
		prev := runs[lo:hiOff]
		//hepccl:checked same fence invariant
		cur2 := runs[cur:curEnd]
		jj := 0
		for i := range cur2 {
			a := cur2[i].start - dil
			b := cur2[i].end + dil
			j := int(uint32(jj))
			for j < len(prev) && prev[j].end <= a {
				j++
			}
			jj = j
			for k := int(uint32(j)); k < len(prev) && prev[k].start < b; k++ {
				e.uf.Union(cur+int32(i), lo+int32(k))
			}
		}
	}
}

// accumulate resolves every run to its island, numbering islands compactly in
// raster order of first appearance (run order is raster order of first
// pixels, so this matches the per-pixel path exactly), and folds each run's
// pixels into the island statistics. Only lit pixels are read from values.
func (e *Engine) accumulate(values []grid.Value, dst []Island) []Island {
	e.uf.Flatten()
	nr := len(e.runs)
	//hepccl:amortized
	if cap(e.remap) < nr {
		e.remap = make([]int32, nr)
	}
	//hepccl:amortized
	if len(e.rowM) < nr+1 {
		e.rowM = make([]int64, nr+1)
		e.colM = make([]int64, nr+1)
	}
	remap := e.remap[:nr]
	for i := range remap {
		remap[i] = 0
	}
	// Islands number at most runs; grow dst to the ceiling once and index it,
	// truncating to the islands actually emitted at the end.
	base := len(dst)
	//hepccl:amortized
	if cap(dst) < base+nr {
		grown := make([]Island, base+nr, base+nr+nr/2+8)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[: base+nr : cap(dst)]
	out := dst[base:]
	rows, cols := e.rows, e.cols
	runs, rowOff := e.runs, e.rowOff[:rows+1]
	rowM, colM := e.rowM, e.colM
	k := int32(0)
	// The island-label indexes below (root, cl) are loaded or counted
	// values: Flatten pins root < nr and compact numbering keeps cl ≤ k ≤
	// nr, invariants outside compiler range proofs. Everything provable —
	// the row fence, the run loads, the per-pixel value loads — is hoisted
	// into per-row and per-run slice headers instead.
	//hepccl:checked
	for row := 0; row < rows; row++ {
		rowVals := values[row*cols:][:cols]
		for i := rowOff[row]; i < rowOff[row+1]; i++ {
			root := e.uf.Root(i)
			cl := remap[root]
			if cl == 0 {
				k++
				cl = k
				remap[root] = cl
				out[cl-1] = Island{Label: cl}
				rowM[cl] = 0
				colM[cl] = 0
			}
			rn := runs[i]
			var sum, colm int64
			vals := rowVals[:rn.end]
			for c := int(uint32(rn.start)); c < len(vals); c++ {
				v := int64(vals[c])
				sum += v
				colm += int64(c) * v
			}
			is := &out[cl-1]
			is.Pixels += uint32(rn.end - rn.start)
			is.Sum += sum
			rowM[cl] += int64(row) * sum
			colM[cl] += colm
		}
	}
	// Reslicing everything to the island count k gives the finish loop one
	// shared bound.
	fin := out[:k]
	rm := rowM[1 : 1+len(fin)]
	cm := colM[1 : 1+len(fin)]
	for l := range fin {
		is := &fin[l]
		is.RowQ16 = q16Ratio(rm[l], is.Sum)
		is.ColQ16 = q16Ratio(cm[l], is.Sum)
	}
	return dst[:base+int(k)]
}

// q16Ratio returns round(num/den × 2^16) in Q16.16 — the identical rounding
// used by adapt.ServeEvent and the streaming centroid divider, so the two
// backends produce bit-identical centroids.
func q16Ratio(num, den int64) int32 {
	if den == 0 {
		return 0
	}
	return int32((num<<16 + den/2) / den)
}
