package runccl

import (
	"math/bits"
	"slices"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

// arenaRun is one run of the arena: its union-find parent and, while it is a
// root, the totals of its whole set (a linked run's totals are dead).
type arenaRun struct {
	parent int32
	pix    uint32
	sum    int64 // Σ value
	rowM   int64 // Σ row·value
	colM   int64 // Σ col·value
}

// Prefix is one entry of an event's lit prefix sums: over its lit pixels in
// raster order up to and including one, Σ value and Σ lit index × value.
type Prefix struct {
	Sum, Mom int64
}

// Batch is the run labeler behind adapt's run sink. An event is its lit
// bitmap (Engine.Pack's layout) and its lit pixels' prefix sums, written
// through Feed; EndEvent cuts each row's runs from the bitmap a word at a time
// (the bit-level runs of arXiv:2006.09299), takes each run's totals from two
// prefix entries, and links the row to the row above by mask in a flat
// min-root forest (parent[x] ≤ x, arXiv:1708.08180), folding the absorbed
// root's totals into the survivor. A root is thus its set's first run in
// raster order, holding its island's totals, and Islands emits the roots. A
// Batch holds events between Resets in disjoint index ranges no union
// crosses, and is not safe for concurrent use. Records are bit-identical to
// the per-pixel reference (adapt's FuzzRunCCLvsPixel, FuzzBatchVsSingle).
type Batch struct {
	rows, cols int
	wpr        int    // bitmap words per row
	dil        int    // 1 under 8-way connectivity
	pad        int    // bitmap bits per row past the last column
	rowMul     uint64 // Bit's division by cols: fl·rowMul >> rowShift
	rowShift   uint

	// The open event: its bitmap behind a zero row 0, pre[k] over lit pixels
	// 0..k−1, and the cut's next row, run index and lit index.
	bits []uint64
	pre  []Prefix
	row  int
	next int32
	lit  int

	// Cut scratch by row parity: each word's run starts and first run index;
	// ends holds the cut row's run ends, one word longer than a row.
	starts, ends []uint64
	base         []int32

	runs  []arenaRun
	evOff []int32 // event e's runs are [evOff[e], evOff[e+1]); len events+1
	roots []int32 // Islands scratch: the event's root indexes
}

// NewBatch returns a run labeler for the engine's geometry and connectivity.
// The Batch shares nothing with the Engine but its configuration.
func (e *Engine) NewBatch() *Batch {
	b := &Batch{rows: e.rows, cols: e.cols, wpr: e.wpr, pad: e.wpr*64 - e.cols}
	if e.eight {
		b.dil = 1
	}
	// rowMul = (2^k + ε)/cols with 0 < ε ≤ cols errs by fl·ε/(cols·2^k) < 1/cols
	// for fl·cols < 2^k; NewEngine's pixel limit keeps fl·rowMul in 64 bits.
	b.rowShift = uint(bits.Len64(uint64(e.rows*e.cols) * uint64(e.cols)))
	b.rowMul = uint64(1)<<b.rowShift/uint64(e.cols) + 1
	b.bits, b.pre = make([]uint64, (e.rows+1)*e.wpr), make([]Prefix, 1, 64)
	b.starts, b.ends = make([]uint64, 2*e.wpr), make([]uint64, e.wpr+1)
	b.base = make([]int32, 2*e.wpr)
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

// BeginEvent opens an event; Feed or ExtractEvent gives it its lit pixels.
//
//hepccl:hotpath
func (b *Batch) BeginEvent() {
	b.row, b.next, b.lit = b.rows, int32(len(b.runs)), 0
}

// Feed sizes the open event for n lit pixels and returns what the producer
// fills in raster order: the zeroed bitmap in Engine.Pack's layout (Bit places
// a pixel), to hold exactly the n lit bits, and n prefix entries, the k-th
// over lit pixels 0..k. The arena is pre-sized to one run per lit pixel.
//
//hepccl:hotpath
func (b *Batch) Feed(n int) (bitmap []uint64, pre []Prefix) {
	clear(b.bits)
	//hepccl:amortized
	b.pre = slices.Grow(b.pre[:1], n)[:n+1]
	//hepccl:amortized
	b.runs = slices.Grow(b.runs, n)[:len(b.runs)+n]
	b.row = 0
	return b.bits[b.wpr:], b.pre[1:]
}

// Bit returns the bitmap word and bit of flat pixel fl < rows·cols.
//
//hepccl:hotpath
func (b *Batch) Bit(fl int) (word int, bit uint64) {
	row := int(uint64(fl) * b.rowMul >> (b.rowShift & 63))
	pos := fl + row*b.pad
	return pos >> 6, 1 << (pos & 63)
}

// EndEvent cuts the open event's runs, linking and folding them, and seals it.
//
//hepccl:hotpath
func (b *Batch) EndEvent() {
	b.cutRows(b.rows)
	b.runs = b.runs[:b.next]
	b.evOff = append(b.evOff, b.next)
}

// Runs returns the run count of the sealed events.
func (b *Batch) Runs() int { return int(b.evOff[len(b.evOff)-1]) }

// cutRows cuts the open event's rows up to to: each row's runs, then its
// links to the row above. A run at columns s..s+k−1 holds lit indexes
// lit..lit+k−1, so its column moment is ΔMom + (s − lit)·Δsum. A link, a set
// bit c of a mask, joins the row's run holding column c − dc to the run above
// holding c − da, each found by popcount: overlap segment starts (dc = da = 0)
// and the 8-way corners (da = 1: a run's first column under a run above's
// last; dc = 1: the column past a run under a run above's first).
//
//hepccl:hotpath
func (b *Batch) cutRows(to int) {
	wpr := b.wpr
	// Dark rows outside the lit band cost one test a word.
	stop := max(b.row, to)
	band := b.bits[(b.row+1)*wpr : (stop+1)*wpr]
	for len(band) > 0 && band[len(band)-1] == 0 {
		band = band[:len(band)-1]
	}
	first := 0
	for first < len(band) && band[first] == 0 {
		first++
	}
	from := b.row + first/wpr
	to = b.row + (len(band)+wpr-1)/wpr
	cur := from & 1 * wpr
	starts, aboveStarts := b.starts[cur:][:wpr], b.starts[wpr-cur:][:wpr]
	base, aboveBase := b.base[cur:][:wpr], b.base[wpr-cur:][:wpr]
	ends := b.ends[:wpr+1]
	runs, pre, i, lit := b.runs, b.pre, b.next, b.lit
	p0 := pre[lit]
	diag := -uint64(b.dil) // corner links: all ones under 8-way
	// Indexes below hold by the geometry and the feed, unseen by the compiler:
	// rows and scratch are wpr words; a row's k-th run end follows its k-th
	// start, so the cursors stay in range; one bit per lit pixel keeps lit+k <
	// len(pre) and i < len(runs); links name runs below i, as do their parents.
	//hepccl:checked
	for r, above := from, b.bits[from*wpr:][:wpr]; r < to; r++ {
		row := above[wpr:][:wpr]
		last := i
		var carry uint64
		for w, m := range row {
			sh := m<<1 | carry
			starts[w], ends[w], base[w] = m&^sh, sh&^m, last
			last += int32(bits.OnesCount64(m &^ sh))
			carry = m >> 63
		}
		ends[wpr] = carry
		if last > i { // a dark row has no runs and no links
			// The runs: the k-th start pairs with the k-th end, across words.
			ws, we, st, en := 0, 0, starts[0], ends[0]
			for ; i < last; i++ {
				for ; st == 0; st = starts[ws] {
					ws++
				}
				for ; en == 0; en = ends[we] {
					we++
				}
				s := ws<<6 + bits.TrailingZeros64(st)
				k := we<<6 + bits.TrailingZeros64(en) - s
				st, en = st&(st-1), en&(en-1)
				p1 := pre[lit+k]
				sum := p1.Sum - p0.Sum
				run := &runs[i]
				run.parent = i
				run.pix = uint32(k)
				run.sum = sum
				run.rowM = int64(r) * sum
				run.colM = p1.Mom - p0.Mom + int64(s-lit)*sum
				p0 = p1
				lit += k
			}

			// The links; a word without any costs one test.
			var aboveCarry uint64
			for w, m := range row {
				a := above[w]
				ov := m & a
				links := [3]uint64{ov &^ (ov << 1), starts[w] & (a<<1 | aboveCarry) & diag, ends[w] & a & diag}
				aboveCarry = a >> 63
				if links[0]|links[1]|links[2] == 0 {
					continue
				}
				for t, l := range links {
					dc, da := uint(t>>1), uint(t&1)
					for ; l != 0; l &= l - 1 {
						upTo := ^uint64(0) >> (63 - bits.TrailingZeros64(l)) // columns 0..c
						x := base[w] + int32(bits.OnesCount64(starts[w]&(upTo>>dc))) - 1
						y := aboveBase[w] + int32(bits.OnesCount64(aboveStarts[w]&(upTo>>da))) - 1
						// Find both roots, halving the paths.
						for p := runs[x].parent; p != x; p = runs[x].parent {
							x, runs[x].parent = runs[p].parent, runs[p].parent
						}
						for p := runs[y].parent; p != y; p = runs[y].parent {
							y, runs[y].parent = runs[p].parent, runs[p].parent
						}
						// The smaller root takes the larger one's totals (none if
						// they are one root): sign masks, as which is which is data.
						d := y - x
						lo, keep := d&(d>>31), (d|-d)>>31
						small, big := &runs[x+lo], &runs[y-lo]
						big.parent = x + lo
						small.pix += big.pix & uint32(keep)
						small.sum += big.sum & int64(keep)
						small.rowM += big.rowM & int64(keep)
						small.colM += big.colM & int64(keep)
					}
				}
			}
		}
		starts, aboveStarts = aboveStarts, starts
		base, aboveBase = aboveBase, base
		above = row
	}
	b.row, b.next, b.lit = stop, i, lit
}

// Islands appends event ev's islands to dst: its roots in index order, which
// is raster order of first pixel — ccl.Label's compact numbering, with the
// values the per-pixel path gives. dst follows the usual reuse contract.
//
//hepccl:hotpath
func (b *Batch) Islands(ev int, dst []Island) []Island {
	lo := b.evOff[ev]
	runs := b.runs[lo:b.evOff[ev+1]]
	//hepccl:amortized
	b.roots = slices.Grow(b.roots[:0], len(runs))
	// Whether a run is a root is a coin flip on a dense frame, so compact
	// the root indexes branch-free first (store always, advance by the sign
	// of parent − index) and divide in a loop over roots alone.
	roots := b.roots[:len(runs)]
	k := 0
	for i := range runs {
		// k counts roots among the first i runs: k ≤ i < len(roots).
		//hepccl:checked
		roots[k] = int32(i)
		k += int(1 + (runs[i].parent-lo-int32(i))>>31)
	}
	base := len(dst)
	//hepccl:amortized
	dst = slices.Grow(dst, k)[:base+k]
	// One length k on both views gives the emit loop a shared bound.
	roots = roots[:k]
	out := dst[base:][:k]
	for l, x := range roots {
		// x indexes one of the event's runs by the compaction above.
		//hepccl:checked
		r := &runs[x]
		// Field stores through the slot pointer: a struct literal would be
		// built on the stack and copied out.
		o := &out[l]
		o.Label = int32(l + 1)
		o.Pixels = r.pix
		o.Sum = r.sum
		o.RowQ16 = Q16Ratio(r.rowM, r.sum)
		o.ColQ16 = Q16Ratio(r.colM, r.sum)
	}
	return dst
}

// ExtractEvent feeds the open event from a packed lit bitmap (Engine.Pack's
// layout) and its values image, for callers holding an image, not a lit list.
func (b *Batch) ExtractEvent(bitmap []uint64, values []grid.Value) {
	n := 0
	for _, x := range bitmap {
		n += bits.OnesCount64(x)
	}
	dst, pre := b.Feed(n)
	copy(dst, bitmap)
	var acc Prefix
	k := 0
	for i, x := range bitmap {
		for px := i/b.wpr*b.cols + i%b.wpr<<6; x != 0; x &= x - 1 {
			v := int64(values[px+bits.TrailingZeros64(x)])
			acc.Sum += v
			acc.Mom += int64(k) * v
			pre[k] = acc
			k++
		}
	}
}
