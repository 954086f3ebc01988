package runccl

import (
	"math/bits"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// Batch is the batch-resident labeling state behind adapt.ServeLitBatch: one
// flat arena of runs spanning every event of a serving batch, following Chen
// et al.'s GPU-optimized union-find (arXiv:1708.08180) in treating label
// resolution as a data-parallel reduction over flat arrays rather than a
// per-event pointer-chasing pass.
//
// The serving front end streams each event's runs in raster order with
// AddRun, which links vertically adjacent runs into a single flat []int32
// parent array as they arrive — the merge inner loop is the two-pointer
// overlap sweep of Engine.connect, with the union's link step predicated
// (sign-mask min/max blend, unconditional store) instead of branched. Events
// occupy disjoint index ranges of the arena, so no cross-event union can
// occur and one Resolve — a single ascending path-halving sweep over the
// whole batch — resolves every run of every event to its root. Islands then
// scatters per-run accumulators (charge, column moment, pixel count, all
// folded at decode time while the event's samples were still in L1/L2) into
// per-island statistics, one event at a time, at batch end.
//
// The partition, island numbering (compact 1..K in raster order of first
// appearance), statistics, and Q16.16 rounding are bit-identical to
// Engine.Label on the same events; adapt's FuzzBatchVsSingle enforces this
// against both the single-event engine and the per-pixel reference. A Batch
// is not safe for concurrent use; servers give each worker pipeline its own.
type Batch struct {
	rows, cols int
	dil        int32 // ±1 column dilation under 8-way connectivity

	// Flat batch-resident run store. All slices grow to the workload's
	// high-water mark and are reused across batches; indexes are global run
	// ids spanning the whole batch.
	rStart []int32
	rEnd   []int32
	rRow   []int32
	rSum   []int64 // Σ value over the run, folded at decode time
	rColM  []int64 // Σ col·value over the run, folded at decode time
	parent []int32 // union-find forest over all runs of the batch
	evOff  []int32 // event e's runs are [evOff[e], evOff[e+1]); len events+1

	// In-progress event state: the open row's first run, the previous row's
	// run range, and the two-pointer cursor into it.
	curRow         int32
	curLo          int32
	prevLo, prevHi int32
	cursor         int32

	// Per-event scatter scratch, sized to the largest event's run count.
	remap   []int32
	islPix  []uint32
	islSum  []int64
	islRowM []int64
	islColM []int64
}

// NewBatch returns batch-resident labeling state for the engine's geometry
// and connectivity. The Batch shares nothing with the Engine but its
// configuration; one Engine can anchor any number of Batches.
func (e *Engine) NewBatch() *Batch {
	b := &Batch{rows: e.rows, cols: e.cols}
	if e.eight {
		b.dil = 1
	}
	b.evOff = make([]int32, 1, 64)
	return b
}

// Reset discards all batch state, keeping the arenas. Call once per batch
// before the first BeginEvent.
//
//hepccl:hotpath
func (b *Batch) Reset() {
	b.rStart = b.rStart[:0]
	b.rEnd = b.rEnd[:0]
	b.rRow = b.rRow[:0]
	b.rSum = b.rSum[:0]
	b.rColM = b.rColM[:0]
	b.parent = b.parent[:0]
	b.evOff = b.evOff[:1]
}

// BeginEvent opens a new event: subsequent AddRun calls belong to it until
// EndEvent.
//
//hepccl:hotpath
func (b *Batch) BeginEvent() {
	lo := int32(len(b.parent))
	b.curLo = lo
	b.prevLo, b.prevHi = lo, lo
	b.cursor = lo
	// -2 so the first run's row (≥ 0) can never read as curRow+1 and connect
	// into the previous event's last row.
	b.curRow = -2
}

// EndEvent seals the open event and returns the batch's run count so far —
// what a caller bounding the arena compares against its budget.
//
//hepccl:hotpath
func (b *Batch) EndEvent() int {
	b.evOff = append(b.evOff, int32(len(b.parent)))
	return len(b.parent)
}

// Events returns the number of sealed events in the batch.
func (b *Batch) Events() int { return len(b.evOff) - 1 }

// Runs returns the total run count across the batch (sealed + open).
func (b *Batch) Runs() int { return len(b.parent) }

// AddRun appends one maximal run of lit pixels — [start, end) on row, with
// its value sum and column moment already folded — and merges it with the
// overlapping runs of the previous row in the same pass. Runs must arrive in
// raster order (rows non-decreasing, starts increasing within a row): exactly
// the order any decode or extraction pass produces them.
//
//hepccl:hotpath
func (b *Batch) AddRun(row, start, end int32, sum, colm int64) {
	i := int32(len(b.parent))
	b.rStart = append(b.rStart, start)
	b.rEnd = append(b.rEnd, end)
	b.rRow = append(b.rRow, row)
	b.rSum = append(b.rSum, sum)
	b.rColM = append(b.rColM, colm)
	b.parent = append(b.parent, i)
	if row != b.curRow {
		if row == b.curRow+1 {
			b.prevLo, b.prevHi = b.curLo, i
		} else {
			// A row gap: nothing above can connect.
			b.prevLo, b.prevHi = i, i
		}
		b.curLo = i
		b.curRow = row
		b.cursor = b.prevLo
	}
	// Two-pointer overlap sweep against the previous row's runs. Both lists
	// are sorted and disjoint, so the cursor only ever advances within a row;
	// a previous-row run can still overlap several current-row runs, which
	// the non-advancing k scan handles.
	a := start - b.dil
	bb := end + b.dil
	// Slicing both run arrays to prevHi puts the sweep bound in the slice
	// header, and the uint32 round trip proves the cursor non-negative, so
	// neither sweep carries a bounds check.
	j := int(uint32(b.cursor))
	ends := b.rEnd[:b.prevHi]
	for j < len(ends) && ends[j] <= a {
		j++
	}
	b.cursor = int32(j)
	starts := b.rStart[:b.prevHi]
	p := b.parent
	// A second uint32 round trip: j's non-negativity does not survive the
	// skip loop's phi, so re-prove it for the merge sweep.
	for k := int(uint32(j)); k < len(starts) && starts[k] < bb; k++ {
		//hepccl:checked inlined unionPred chases loaded parent pointers; see its invariant
		unionPred(p, i, int32(k))
	}
}

// unionPred merges the sets of a and b in the flat parent array: path-halving
// finds, then a predicated link — sign-mask min/max blend and an
// unconditional parent store (self-assignment when the roots coincide) — in
// place of the usual three-way root comparison. The smaller root always
// survives, preserving parent[x] ≤ x, which is what lets Resolve finish in
// one ascending sweep.
//
//hepccl:hotpath
func unionPred(p []int32, a, b int32) {
	// Both chases index with loaded parent values. Entries are initialized
	// to their own index and unions only ever store smaller roots, so
	// 0 ≤ p[x] ≤ x < len(p) throughout — a data invariant no compiler
	// range proof covers.
	//hepccl:checked
	for p[a] != a {
		p[a] = p[p[a]]
		a = p[a]
	}
	//hepccl:checked
	for p[b] != b {
		p[b] = p[p[b]]
		b = p[b]
	}
	d := b - a
	m := d & (d >> 31)
	p[b-m] = a + m
}

// Resolve flattens the whole batch's forest with a single ascending sweep:
// because every union links the larger root under the smaller and path
// halving only ever shortens chains, parent[i] < i points at an
// already-resolved element, so p[i] = p[p[i]] lands every run of every event
// on its root in one pass over the flat array — the batched analogue of
// DenseUF.Flatten, and the data-parallel label-resolution step of Chen et
// al.'s formulation.
//
//hepccl:hotpath
func (b *Batch) Resolve() {
	p := b.parent
	// The inner index is the loaded parent value: parent[i] ≤ i < len(p)
	// (the smaller root always survives a union), out of range-proof reach.
	//hepccl:checked
	for i := range p {
		p[i] = p[p[i]]
	}
}

// Islands scatters event ev's per-run accumulators into per-island statistics
// and appends one Island per component to dst, numbered compactly in raster
// order of first appearance — bit-identical to Engine.Label's output for the
// same event. Call only after Resolve; dst follows the usual reuse contract.
//
//hepccl:hotpath
func (b *Batch) Islands(ev int, dst []Island) []Island {
	lo, hi := b.evOff[ev], b.evOff[ev+1]
	n := int(hi - lo)
	if n == 0 {
		return dst
	}
	//hepccl:amortized
	if cap(b.remap) < n {
		b.remap = make([]int32, n)
		b.islPix = make([]uint32, n)
		b.islSum = make([]int64, n)
		b.islRowM = make([]int64, n)
		b.islColM = make([]int64, n)
	}
	remap := b.remap[:n]
	for i := range remap {
		remap[i] = 0
	}
	islPix := b.islPix[:n]
	islSum := b.islSum[:n]
	islRowM := b.islRowM[:n]
	islColM := b.islColM[:n]
	// Event-local views put the run range in the slice headers, so the
	// i-indexed loads below are check-free.
	pp := b.parent[lo:hi]
	rEnd := b.rEnd[lo:hi:hi]
	rStart := b.rStart[lo:hi:hi]
	rSum := b.rSum[lo:hi:hi]
	rRow := b.rRow[lo:hi:hi]
	rColM := b.rColM[lo:hi:hi]
	k := int32(0)
	// The remap and isl* indexes are loaded or counted labels: unions never
	// cross events, so root ∈ [0, n), and cl ∈ [1, k] with k ≤ n — data
	// invariants outside compiler range proofs.
	//hepccl:checked
	for i := range pp {
		root := pp[i] - lo
		cl := remap[root]
		if cl == 0 {
			k++
			cl = k
			remap[root] = cl
			islPix[cl-1] = 0
			islSum[cl-1] = 0
			islRowM[cl-1] = 0
			islColM[cl-1] = 0
		}
		islPix[cl-1] += uint32(rEnd[i] - rStart[i])
		islSum[cl-1] += rSum[i]
		islRowM[cl-1] += int64(rRow[i]) * rSum[i]
		islColM[cl-1] += rColM[i]
	}
	base := len(dst)
	//hepccl:amortized
	if cap(dst) < base+int(k) {
		grown := make([]Island, base+int(k), base+int(k)+int(k)/2+8)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[: base+int(k) : cap(dst)]
	// Reslicing every array to the island count k lets the compiler carry
	// one shared bound through the copy loop.
	out := dst[base:][:k]
	pix := islPix[:k]
	sums := islSum[:k]
	rowm := islRowM[:k]
	colm := islColM[:k]
	for l := range out {
		out[l] = Island{
			Pixels: pix[l],
			Sum:    sums[l],
			RowQ16: q16Ratio(rowm[l], sums[l]),
			ColQ16: q16Ratio(colm[l], sums[l]),
		}
	}
	return dst
}

// ExtractEvent feeds the open event from a packed lit bitmap and its values
// image — the producer for callers that hold an image rather than a lit list
// (tests, kernel benchmarks). It is the word-at-a-time extraction of
// Engine.extract, folding each run's value sum and column moment inline so
// the downstream batch machinery sees exactly what the serving front end's
// run sink would have produced.
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
