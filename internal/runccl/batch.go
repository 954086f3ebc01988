package runccl

import (
	"math/bits"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// arenaRun is one run of the arena: its union-find parent, its extent, and —
// while it is a root — the totals of its whole set. A linked (non-root) run's
// totals are dead.
type arenaRun struct {
	parent     int32
	start, end int32 // columns [start, end)
	pix        uint32
	sum        int64 // Σ value
	rowM       int64 // Σ row·value
	colM       int64 // Σ col·value
}

// Batch is the run labeler behind adapt's run sink: one arena of runs in
// which labeling finishes as the runs arrive. AddRun takes runs in raster
// order, links each to the overlapping runs of the row above in a flat
// min-root forest (parent[x] ≤ x, Chen et al., arXiv:1708.08180) and folds the
// absorbed root's totals into the surviving one at that moment (Lemaitre &
// Lacassagne, arXiv:2006.09299). The smaller root always survives, so a root
// is its set's first run in raster order: an event's roots in index order
// are its islands in the record's numbering, each already holding its
// island's totals, and Islands is one sweep that emits them. Nothing is
// resolved, remapped or scattered afterwards.
//
// A Batch holds any number of events between Resets, in disjoint index
// ranges that no union crosses; the serving path resets per event, so its
// arena stays the size of one event's runs. The partition, numbering,
// statistics and Q16.16 rounding are bit-identical to ccl.Label's compact
// labels with integer moments and to the per-pixel reference (this package's
// tests, adapt's FuzzRunCCLvsPixel and FuzzBatchVsSingle).
// A Batch is not safe for concurrent use.
type Batch struct {
	rows, cols int
	dil        int32 // ±1 column dilation under 8-way connectivity

	runs  []arenaRun
	evOff []int32 // event e's runs are [evOff[e], evOff[e+1]); len events+1
	roots []int32 // Islands scratch: the event's root indexes

	// In-progress event state: the open row and its first run, the end of
	// the previous row's runs, and the two-pointer cursor into them.
	curRow int32
	curLo  int32
	prevHi int32
	cursor int32
}

// NewBatch returns a run labeler for the engine's geometry and connectivity.
// The Batch shares nothing with the Engine but its configuration.
func (e *Engine) NewBatch() *Batch {
	b := &Batch{rows: e.rows, cols: e.cols}
	if e.eight {
		b.dil = 1
	}
	b.evOff = make([]int32, 1, 64)
	return b
}

// Reset discards every event, keeping the arena's storage.
//
//hepccl:hotpath
func (b *Batch) Reset() {
	b.runs = b.runs[:0]
	b.evOff = b.evOff[:1]
}

// BeginEvent opens a new event: subsequent AddRun calls belong to it until
// EndEvent.
//
//hepccl:hotpath
func (b *Batch) BeginEvent() {
	lo := int32(len(b.runs))
	b.curLo = lo
	b.prevHi = lo
	b.cursor = lo
	// -2 so the first run's row (≥ 0) can never read as curRow+1 and connect
	// into the previous event's last row.
	b.curRow = -2
}

// EndEvent seals the open event.
//
//hepccl:hotpath
func (b *Batch) EndEvent() {
	b.evOff = append(b.evOff, int32(len(b.runs)))
}

// Events returns the number of sealed events.
func (b *Batch) Events() int { return len(b.evOff) - 1 }

// Runs returns the total run count (sealed + open).
func (b *Batch) Runs() int { return len(b.runs) }

// AddRun appends one maximal run of lit pixels — [start, end) on row, with
// its value sum and column moment already folded — and unions it with the
// overlapping runs of the previous row, folding island totals as it links.
// Runs must arrive in raster order (rows non-decreasing, starts increasing
// within a row): exactly the order any decode or extraction pass produces
// them.
//
//hepccl:hotpath
func (b *Batch) AddRun(row, start, end int32, sum, colm int64) {
	i := int32(len(b.runs))
	b.runs = append(b.runs, arenaRun{})
	runs := b.runs
	// Field stores through the slot pointer: a struct literal would be built
	// on the stack in 4-byte pieces and copied out with wider loads, a
	// store-forwarding stall per run.
	r := &runs[len(runs)-1]
	r.parent = i
	r.start, r.end = start, end
	r.pix = uint32(end - start)
	r.sum = sum
	r.rowM = int64(row) * sum
	r.colM = colm
	if row != b.curRow {
		// The row just closed is the one above, unless there is a row gap:
		// then nothing above can connect.
		b.cursor = i
		if row == b.curRow+1 {
			b.cursor = b.curLo
		}
		b.prevHi = i
		b.curLo = i
		b.curRow = row
	}
	// Two-pointer overlap sweep against the previous row's runs. Both lists
	// are sorted and disjoint, so the cursor only ever advances within a row;
	// a previous-row run can still overlap several current-row runs, which
	// the non-advancing k scan handles. Slicing to prevHi puts the sweep
	// bound in the slice header, and the uint32 round trips prove the
	// indexes non-negative (the skip loop's phi loses it once), so neither
	// sweep carries a bounds check.
	a := start - b.dil
	bb := end + b.dil
	prev := runs[:b.prevHi]
	j := int(uint32(b.cursor))
	for j < len(prev) && prev[j].end <= a {
		j++
	}
	b.cursor = int32(j)
	// ri is the new run's root: itself until a union puts it under a
	// smaller one. Every runs[·] below indexes with a loaded parent value:
	// slots start as their own index and links only ever store smaller
	// roots, so 0 ≤ parent[x] ≤ x < len(runs) — a data invariant no range
	// proof covers.
	ri := i
	//hepccl:checked
	for k := int(uint32(j)); k < len(prev) && prev[k].start < bb; k++ {
		x := int32(k)
		for p := runs[x].parent; p != x; p = runs[x].parent {
			p = runs[p].parent // path halving
			runs[x].parent = p
			x = p
		}
		if x == ri {
			continue
		}
		// The smaller root survives and takes the larger one's totals:
		// sign-mask min/max, since which is smaller is data.
		d := x - ri
		m := d & (d >> 31)
		lo, hi := &runs[ri+m], &runs[x-m]
		hi.parent = ri + m
		lo.pix += hi.pix
		lo.sum += hi.sum
		lo.rowM += hi.rowM
		lo.colM += hi.colM
		ri += m
	}
}

// Islands appends event ev's islands to dst: its roots in index order, which
// is raster order of first pixel — ccl.Label's compact numbering, with the
// values the per-pixel path gives. dst follows the usual reuse contract.
//
//hepccl:hotpath
func (b *Batch) Islands(ev int, dst []Island) []Island {
	lo, hi := b.evOff[ev], b.evOff[ev+1]
	n := int(hi - lo)
	//hepccl:amortized
	if cap(b.roots) < n {
		b.roots = make([]int32, n+n/2+8)
	}
	// Whether a run is a root is a coin flip on a dense frame, so compact
	// the root indexes branch-free first (store always, advance by the sign
	// of parent − index) and divide in a loop over roots alone.
	runs := b.runs[lo:hi]
	roots := b.roots[:len(runs)]
	k := 0
	for i := range runs {
		x := lo + int32(i)
		// k counts roots among the first i runs: k ≤ i < len(roots).
		//hepccl:checked
		roots[k] = x
		k += int(1 + (runs[i].parent-x)>>31)
	}
	base := len(dst)
	//hepccl:amortized
	if cap(dst) < base+k {
		grown := make([]Island, base+k, base+k+k/2+8)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+k]
	// One length k on both views gives the emit loop a shared bound.
	roots = roots[:k]
	out := dst[base:][:k]
	all := b.runs
	for l, x := range roots {
		// x ∈ [lo, hi) ⊂ [0, len(all)) by the compaction above.
		//hepccl:checked
		r := &all[x]
		// Field stores through the slot pointer, as in AddRun.
		o := &out[l]
		o.Label = int32(l + 1)
		o.Pixels = r.pix
		o.Sum = r.sum
		o.RowQ16 = q16Ratio(r.rowM, r.sum)
		o.ColQ16 = q16Ratio(r.colM, r.sum)
	}
	return dst
}

// ExtractEvent feeds the open event from a packed lit bitmap (Engine.Pack's
// layout) and its values image — the producer for callers that hold an image
// rather than a lit list (Engine.Label, tests, kernel benchmarks). It sweeps
// each row word-at-a-time with bits.TrailingZeros64, so dark words cost one
// load and one compare; a run that reaches a word's last bit is carried into
// the next word, so runs spanning words arrive whole. Each run's value sum and
// column moment are folded inline, so the batch sees exactly what the serving
// front end's run sink would have produced.
func (b *Batch) ExtractEvent(bitmap []uint64, values []grid.Value) {
	wpr := (b.cols + 63) / 64
	// The packed-frame contract sizes bitmap to rows·wpr words and values to
	// rows·cols samples; the row sub-slices below are in range by that
	// contract, which the compiler cannot see across the call boundary.
	//hepccl:checked
	for r := 0; r < b.rows; r++ {
		words := bitmap[r*wpr : (r+1)*wpr]
		rowBase := r * b.cols
		openStart, openEnd := int32(-1), int32(-1)
		for w, x := range words {
			wordBase := int32(w) << 6
			for x != 0 {
				s := bits.TrailingZeros64(x)
				n := bits.TrailingZeros64(^(x >> uint(s))) // run length 1..64
				start := wordBase + int32(s)
				end := start + int32(n)
				if start == openEnd {
					openEnd = end // continues through the word boundary
				} else {
					if openStart >= 0 {
						b.addExtracted(int32(r), openStart, openEnd, values[rowBase:])
					}
					openStart, openEnd = start, end
				}
				// Clear the consumed run; x<<64 == 0 covers the all-ones word.
				x &^= ((uint64(1) << uint(n)) - 1) << uint(s)
			}
		}
		if openStart >= 0 {
			b.addExtracted(int32(r), openStart, openEnd, values[rowBase:])
		}
	}
}

// addExtracted folds one extracted run's statistics from the values row and
// hands it to AddRun.
func (b *Batch) addExtracted(row, start, end int32, rowVals []grid.Value) {
	var sum, colm int64
	// One check at the reslice replaces a per-sample check: the loop bound
	// is the slice length and the uint32 round trip proves start ≥ 0.
	vals := rowVals[:end]
	for c := int(uint32(start)); c < len(vals); c++ {
		v := int64(vals[c])
		sum += v
		colm += int64(c) * v
	}
	b.AddRun(row, start, end, sum, colm)
}
