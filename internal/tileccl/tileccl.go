// Package tileccl implements tile-parallel connected-component labeling for
// megapixel bit-packed frames — the intra-event parallelism layer on top of
// the run-based engine of internal/runccl.
//
// The paper's geometries top out at 64×64, where one event is too small to be
// worth splitting. Pixel-telescope and imaging workloads are not: a 512×512–
// 1024×1024 frame carries hundreds of kilopixels per trigger, and the related
// work (Chen et al.'s coarse-to-fine strategy, arXiv:1712.09789; Kowalczyk &
// Kryjak's multi-pixel-per-clock streams, arXiv:2105.09658) shows the
// parallel speedup lives in labeling tiles independently and reconciling only
// the boundaries. This package does exactly that, in software:
//
//   - the frame is cut into a fixed grid of tiles (full-width row bands by
//     default; arbitrary rectangles are supported and fuzzed);
//   - a persistent worker pool — goroutines started once at engine
//     construction, parked between events, never spawned per event — labels
//     tiles concurrently with the run-based kernel (word-at-a-time run
//     extraction, per-tile union-find over runs) against per-worker and
//     per-tile arena scratch, accumulating per-island statistics (pixels,
//     charge, Q16.16 centroid moments) locally;
//   - a small cross-tile union-find then merges islands that touch across
//     tile edges: one two-pointer overlap sweep per horizontal seam over the
//     boundary-row runs (±1 column dilation for 8-way, which also covers
//     corner adjacency where four tiles meet), and per-row edge matching
//     across vertical seams;
//   - per-island accumulators reduce across tiles with integer addition, so
//     the merged statistics are bit-identical to a single-core runccl pass,
//     and islands are renumbered 1..K by first raster appearance — the
//     identical compact numbering runccl and the per-pixel path produce.
//
// The sequential work per event is O(boundary runs + islands): everything
// proportional to frame area or lit content runs inside the tiles.
// FuzzTiledVsSingle asserts exact equivalence (labels partition, statistics,
// numbering) against runccl and the ccl.Label flood-fill golden on random
// geometries, tile shapes, and both connectivities.
package tileccl

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/runccl"
)

// Config parameterizes one tile-parallel engine.
type Config struct {
	// Rows, Cols set the frame geometry.
	Rows, Cols int
	// Connectivity is 4-way or 8-way (default FourWay, matching ccl.Options).
	Connectivity grid.Connectivity
	// TileRows, TileCols set the tile shape in pixels. Zero picks an
	// automatic shape: full-width row bands of roughly Rows/(4×Workers) rows
	// (several tiles per worker for dynamic load balance, full width so run
	// extraction never pays column clipping). Edge tiles are clipped to the
	// frame.
	TileRows, TileCols int
	// Workers is the total labeling concurrency, including the caller's
	// goroutine: Workers-1 pool goroutines are started at construction and
	// the calling thread labels alongside them. Zero means
	// min(GOMAXPROCS, 8). Workers is capped at the tile count; 1 runs
	// everything inline on the caller with no pool at all.
	Workers int
}

// run is one maximal horizontal segment of lit pixels within a tile, in
// global column coordinates; the row is implicit in per-row index ranges.
type run struct {
	start, end int32
}

// bRun is a boundary-row run annotated with the island it belongs to: the
// tile-local island id in tile storage, the global island node once copied
// into a seam sweep list.
type bRun struct {
	start, end, isl int32
}

// tile is one rectangle of the decomposition plus its per-event results.
// Exactly one worker writes a tile per event (tiles are claimed off an atomic
// cursor); the merge phase reads them after the pool barrier, so no field
// needs further synchronization. All slices are persistent arenas grown to
// the workload's high-water mark.
type tile struct {
	r0, r1, c0, c1 int32  // pixel rectangle, half-open
	w0, w1         int32  // word range covering [c0,c1) within a row
	mask0, mask1   uint64 // column-clip masks for the first and last word

	nIsl   int32 // islands found in this tile this event
	pixels []uint32
	sums   []int64
	rowM   []int64
	colM   []int64
	minPos []int64 // per island: first lit pixel in global raster order

	topRuns []bRun  // runs on the tile's first row (local island ids)
	botRuns []bRun  // runs on the tile's last row
	left    []int32 // per local row: island touching col c0, or -1
	right   []int32 // per local row: island touching col c1-1, or -1
}

// worker is one labeler's private scratch: the run store and union-find for
// whichever tile it currently holds. Contents do not survive the tile, so one
// arena per worker suffices no matter how many tiles it processes.
type worker struct {
	runs   []run
	rowOff []int32
	uf     denseUF
	remap  []int32 // run root -> 1+local island id; cleared per tile
	runIsl []int32 // run -> local island id
}

// ordIsl pairs a merged island's root node with its first-appearance raster
// position, for the final compact renumbering sort.
type ordIsl struct {
	pos  int64
	node int32
}

// Engine labels bit-packed binary frames of one fixed geometry across a
// persistent worker pool. The bitmap layout (words per row, bit order) is
// identical to runccl.Engine's, so the serving path's zero-suppression fills
// either engine's bitmap with the same litWord/litMask tables. Label may be
// called from one goroutine at a time; the pool synchronizes internally.
//
//hepccl:pool
type Engine struct {
	rows, cols, wpr    int
	eight              bool
	tileRows, tileCols int
	trows, tcols       int
	nWorkers           int

	tiles []tile
	ws    []worker

	// Per-event job state: published before the pool is woken, consumed by
	// the wake-channel happens-before edge. job selects what a woken worker
	// does (label tiles or scatter merge accumulators); it is written only by
	// the caller between barriers, so the channel edge orders it.
	bitmap []uint64
	values []grid.Value
	next   atomic.Int64 //hepccl:cursor
	job    int32

	wake   chan struct{} //hepccl:wake — one token per background worker per event
	done   chan struct{} //hepccl:done — one token back per background worker
	closed bool

	// Merge-phase scratch. The g* reduction arenas are written by the pool
	// during the scatter barrier (disjoint per-tile ranges) and owned by the
	// caller goroutine otherwise.
	guf          denseUF
	base         []int32
	gPixels      []uint32
	gSums        []int64
	gRowM        []int64
	gColM        []int64
	gMinPos      []int64
	upper, lower []bRun
	ord          []ordIsl
	ordTmp       []ordIsl
	cntRow       []int32 // counting-order scratch, one slot per frame row
	cntCol       []int32 // counting-order scratch, one slot per frame column

	// Optional phase instrumentation (benchmarks): wall ns of the last
	// event's tile phase and merge phase, plus the merge phase's stat-scatter
	// sub-phase — the part of merge that parallelizes across the pool.
	instrument                 bool
	tileNs, mergeNs, scatterNs int64
}

// New validates the configuration, builds the tile decomposition, and starts
// the worker pool. Call Close to stop the pool when the engine is discarded.
func New(cfg Config) (*Engine, error) {
	if cfg.Rows < 1 || cfg.Cols < 1 {
		return nil, fmt.Errorf("tileccl: invalid dimensions %dx%d", cfg.Rows, cfg.Cols)
	}
	conn := cfg.Connectivity
	if conn == 0 {
		conn = grid.FourWay
	}
	if !conn.Valid() {
		return nil, fmt.Errorf("tileccl: invalid connectivity %d", int(cfg.Connectivity))
	}
	if cfg.TileRows < 0 || cfg.TileCols < 0 || cfg.Workers < 0 {
		return nil, fmt.Errorf("tileccl: negative tile shape or worker count")
	}
	w := cfg.Workers
	if w == 0 {
		w = min(runtime.GOMAXPROCS(0), 8)
	}
	th, tw := cfg.TileRows, cfg.TileCols
	if tw == 0 {
		tw = cfg.Cols
	}
	if th == 0 {
		// Several tiles per worker for dynamic balance, but at least 8 rows
		// per tile so seam merging stays a small fraction of tile labeling.
		th = max(cfg.Rows/(4*w), 8)
	}
	th = min(th, cfg.Rows)
	tw = min(tw, cfg.Cols)
	e := &Engine{
		rows:     cfg.Rows,
		cols:     cfg.Cols,
		wpr:      (cfg.Cols + 63) / 64,
		eight:    conn == grid.EightWay,
		tileRows: th,
		tileCols: tw,
		trows:    (cfg.Rows + th - 1) / th,
		tcols:    (cfg.Cols + tw - 1) / tw,
	}
	e.tiles = make([]tile, e.trows*e.tcols)
	for tr := 0; tr < e.trows; tr++ {
		for tc := 0; tc < e.tcols; tc++ {
			t := &e.tiles[tr*e.tcols+tc]
			t.r0 = int32(tr * th)
			t.r1 = int32(min((tr+1)*th, cfg.Rows))
			t.c0 = int32(tc * tw)
			t.c1 = int32(min((tc+1)*tw, cfg.Cols))
			t.w0 = t.c0 >> 6
			t.w1 = (t.c1 - 1) >> 6
			t.mask0 = ^uint64(0) << uint(t.c0&63)
			t.mask1 = ^uint64(0) >> uint(63-(t.c1-1)&63)
		}
	}
	e.nWorkers = min(w, len(e.tiles))
	e.ws = make([]worker, e.nWorkers)
	for i := range e.ws {
		e.ws[i].rowOff = make([]int32, th+1)
		e.ws[i].runs = make([]run, 0, 4*th)
	}
	e.base = make([]int32, len(e.tiles)+1)
	if n := e.nWorkers - 1; n > 0 {
		e.wake = make(chan struct{}, n)
		e.done = make(chan struct{}, n)
		for i := 1; i <= n; i++ {
			go e.workerLoop(i)
		}
	}
	return e, nil
}

// Close stops the pool goroutines. The engine must not be used after Close.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.wake != nil {
		close(e.wake)
	}
}

// WordsPerRow returns the packed-bitmap stride, identical to
// runccl.Engine.WordsPerRow for the same geometry.
func (e *Engine) WordsPerRow() int { return e.wpr }

// BitmapLen returns the required bitmap length, rows × WordsPerRow.
func (e *Engine) BitmapLen() int { return e.rows * e.wpr }

// Rows returns the configured row count.
func (e *Engine) Rows() int { return e.rows }

// Cols returns the configured column count.
func (e *Engine) Cols() int { return e.cols }

// Workers returns the effective labeling concurrency (including the caller).
func (e *Engine) Workers() int { return e.nWorkers }

// Tiles returns the tile-grid shape (tile rows, tile cols).
func (e *Engine) Tiles() (int, int) { return e.trows, e.tcols }

// SetInstrument enables per-phase wall-clock instrumentation for benchmarks.
func (e *Engine) SetInstrument(on bool) { e.instrument = on }

// Phases returns the last labeled event's tile-phase and merge-phase wall
// nanoseconds (zero unless SetInstrument(true)).
func (e *Engine) Phases() (tileNs, mergeNs int64) { return e.tileNs, e.mergeNs }

// MergeScatterNs returns the wall nanoseconds the last event's merge phase
// spent in the stat-scatter sub-phase (zero unless SetInstrument(true)).
// Scatter parallelizes across the pool like the tile phase; the rest of merge
// is serial, so the split refines the modeled multi-core speedup.
func (e *Engine) MergeScatterNs() int64 { return e.scatterNs }

// Pack fills bitmap with the lit-pixel bits of the flat row-major values
// image in the engine's layout — the reference producer for tests; the
// serving path builds the bitmap inline during zero-suppression.
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

// Label labels the packed bitmap across the pool, accumulates per-island
// statistics from the flat row-major values image (only lit pixels are read),
// and appends one Island per component to dst in compact raster order of
// first appearance — output bit-identical to runccl.Engine.Label on the same
// frame. dst is returned grown; pass dst[:0] of a reused slice for the
// zero-allocation steady state.
//
//hepccl:hotpath
func (e *Engine) Label(bitmap []uint64, values []grid.Value, dst []runccl.Island) []runccl.Island {
	//hepccl:coldpath
	if len(bitmap) != e.BitmapLen() {
		panic(fmt.Sprintf("tileccl: bitmap length %d, want %d", len(bitmap), e.BitmapLen()))
	}
	//hepccl:coldpath
	if len(values) != e.rows*e.cols {
		panic(fmt.Sprintf("tileccl: values length %d, want %d", len(values), e.rows*e.cols))
	}
	var t0 int64
	if e.instrument {
		t0 = nanotime()
	}
	e.bitmap, e.values = bitmap, values
	e.job = jobLabel
	e.next.Store(0)
	bg := e.nWorkers - 1
	for i := 0; i < bg; i++ {
		e.wake <- struct{}{}
	}
	e.runTiles(0) // the caller labels alongside the pool
	for i := 0; i < bg; i++ {
		<-e.done
	}
	var t1 int64
	if e.instrument {
		t1 = nanotime()
		e.tileNs = t1 - t0
	}
	dst = e.merge(dst)
	if e.instrument {
		e.mergeNs = nanotime() - t1
	}
	e.bitmap, e.values = nil, nil
	return dst
}

// Jobs a woken pool worker can run. jobLabel is the per-event tile labeling
// phase; jobScatter is the merge phase's accumulator scatter.
const (
	jobLabel = iota
	jobScatter
)

// workerLoop is one pool goroutine: park on the wake channel, run whichever
// job the caller published, report done. It exits when Close closes the
// channel.
func (e *Engine) workerLoop(id int) {
	for range e.wake {
		if e.job == jobScatter {
			e.runScatter()
		} else {
			e.runTiles(id)
		}
		e.done <- struct{}{}
	}
}

// scatterParallelMin is the merged-node count below which the merge phase's
// accumulator scatter stays on the caller: the two channel crossings per
// worker of a second barrier cost a few microseconds, which only a large
// island population amortizes.
const scatterParallelMin = 1024

// runScatter claims tiles off the shared cursor and copies each one's island
// accumulators into its contiguous range of the engine-wide reduction arrays.
// Ranges are disjoint by construction, so concurrent workers never touch the
// same element.
//
//hepccl:hotpath
func (e *Engine) runScatter() {
	nt := int64(len(e.tiles))
	// The cursor yields 0 ≤ i < nt, and base is the tiles' island prefix
	// sum with base[i] + nIsl ≤ len(gPixels) — claim-protocol and fence
	// invariants the compiler cannot see.
	//hepccl:checked
	for {
		i := e.next.Add(1) - 1
		if i >= nt {
			return
		}
		t := &e.tiles[i]
		b := int(e.base[i])
		k := int(t.nIsl)
		copy(e.gPixels[b:b+k], t.pixels[:k])
		copy(e.gSums[b:b+k], t.sums[:k])
		copy(e.gRowM[b:b+k], t.rowM[:k])
		copy(e.gColM[b:b+k], t.colM[:k])
		copy(e.gMinPos[b:b+k], t.minPos[:k])
	}
}

// runTiles claims tiles off the shared cursor until none remain.
//
//hepccl:hotpath
func (e *Engine) runTiles(id int) {
	w := &e.ws[id]
	n := int64(len(e.tiles))
	// The shared cursor yields 0 ≤ i < n by the claim protocol.
	//hepccl:checked
	for {
		i := e.next.Add(1) - 1
		if i >= n {
			return
		}
		e.labelTile(w, &e.tiles[i])
	}
}

// labelTile runs the per-tile kernel: clipped run extraction, local
// union-find, per-island accumulation, and boundary recording — the run-based
// engine restricted to one rectangle, against this worker's arena scratch.
//
//hepccl:hotpath
func (e *Engine) labelTile(w *worker, t *tile) {
	bitmap := e.bitmap
	h := int(t.r1 - t.r0)

	// Run extraction, word-at-a-time with the tile's column-clip masks.
	// Identical to runccl's extractor except for the masked first/last word.
	runs := w.runs[:0]
	rowOff := w.rowOff[:h+1]
	rowHead := rowOff[:h]
	for r := range rowHead {
		rowHead[r] = int32(len(runs))
		wordBase := (int(t.r0) + r) * e.wpr
		openStart, openEnd := int32(-1), int32(-1)
		// The tile's word window lies inside the frame bitmap by the tiling
		// construction; ranging over the row view keeps the word loads
		// check-free.
		//hepccl:checked
		rowWords := bitmap[wordBase+int(t.w0) : wordBase+int(t.w1)+1]
		for wi, x := range rowWords {
			if wi == 0 {
				x &= t.mask0
			}
			if wi == len(rowWords)-1 {
				x &= t.mask1
			}
			base := (t.w0 + int32(wi)) << 6
			for x != 0 {
				s := bits.TrailingZeros64(x)
				n := bits.TrailingZeros64(^(x >> uint(s))) // run length 1..64
				start := base + int32(s)
				end := start + int32(n)
				if start == openEnd {
					openEnd = end // continues through the word boundary
				} else {
					if openStart >= 0 {
						runs = append(runs, run{openStart, openEnd})
					}
					openStart, openEnd = start, end
				}
				// Clear the consumed run; x<<64 == 0 covers the all-ones word.
				x &^= ((uint64(1) << uint(n)) - 1) << uint(s)
			}
		}
		if openStart >= 0 {
			runs = append(runs, run{openStart, openEnd})
		}
	}
	rowOff[h] = int32(len(runs))
	w.runs = runs

	// Local union-find over vertically adjacent runs (±1 column dilation for
	// 8-way): one two-pointer sweep per row pair over the sorted run lists.
	w.uf.Reset(len(runs))
	var dil int32
	if e.eight {
		dil = 1
	}
	// Shifted views of the row fence and row-local run views: per-row-pair
	// checks on the fence loads buy check-free sweeps.
	if len(rowOff) >= 3 {
		offA := rowOff[: len(rowOff)-2 : len(rowOff)-2]
		offB := rowOff[1 : len(rowOff)-1 : len(rowOff)-1]
		offC := rowOff[2:]
		for r := range offA {
			lo, hiOff := offA[r], offB[r]
			cur, curEnd := hiOff, offC[r]
			if lo == hiOff || cur == curEnd {
				continue
			}
			//hepccl:checked the row fence is monotone with rowOff[h] == len(runs)
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
					w.uf.Union(cur+int32(i), lo+int32(k))
				}
			}
		}
	}

	// Compact local islands in tile-raster order and accumulate statistics.
	w.uf.Flatten()
	nr := len(runs)
	//hepccl:amortized
	if cap(w.remap) < nr {
		w.remap = make([]int32, nr)
		w.runIsl = make([]int32, nr)
	}
	remap := w.remap[:nr]
	runIsl := w.runIsl[:nr]
	for i := range remap {
		remap[i] = 0
	}
	//hepccl:amortized
	if cap(t.pixels) < nr {
		t.pixels = make([]uint32, nr)
		t.sums = make([]int64, nr)
		t.rowM = make([]int64, nr)
		t.colM = make([]int64, nr)
		t.minPos = make([]int64, nr)
	}
	pixels := t.pixels[:nr]
	sums := t.sums[:nr]
	rowM := t.rowM[:nr]
	colM := t.colM[:nr]
	minPos := t.minPos[:nr]
	values := e.values
	cols := e.cols
	k := int32(0)
	// The island-label indexes (root, cl) are loaded or counted values with
	// root < nr and cl ≤ k ≤ nr; the provable checks — per-pixel value
	// loads — are hoisted into per-row and per-run slice headers instead.
	//hepccl:checked
	for r := 0; r < h; r++ {
		row := int(t.r0) + r
		rowBase := int64(row) * int64(cols)
		rowVals := values[rowBase:][:cols]
		for i := rowOff[r]; i < rowOff[r+1]; i++ {
			root := w.uf.Root(i)
			cl := remap[root]
			if cl == 0 {
				k++
				cl = k
				remap[root] = cl
				pixels[cl-1] = 0
				sums[cl-1] = 0
				rowM[cl-1] = 0
				colM[cl-1] = 0
				minPos[cl-1] = rowBase + int64(runs[i].start)
			}
			runIsl[i] = cl - 1
			rn := runs[i]
			var sum, colm int64
			vals := rowVals[:rn.end]
			for c := int(uint32(rn.start)); c < len(vals); c++ {
				v := int64(vals[c])
				sum += v
				colm += int64(c) * v
			}
			pixels[cl-1] += uint32(rn.end - rn.start)
			sums[cl-1] += sum
			rowM[cl-1] += int64(row) * sum
			colM[cl-1] += colm
		}
	}
	t.nIsl = k

	// Boundary records for the merge phase: the first and last rows' runs
	// with their island ids, and the per-row islands touching the left and
	// right tile edges.
	top := t.topRuns[:0]
	topRuns := runs[rowOff[0]:rowOff[1]]
	topIsl := runIsl[rowOff[0]:rowOff[1]]
	for i := range topRuns {
		top = append(top, bRun{topRuns[i].start, topRuns[i].end, topIsl[i]})
	}
	t.topRuns = top
	bot := t.botRuns[:0]
	botRuns := runs[rowOff[h-1]:rowOff[h]]
	botIsl := runIsl[rowOff[h-1]:rowOff[h]]
	for i := range botRuns {
		bot = append(bot, bRun{botRuns[i].start, botRuns[i].end, botIsl[i]})
	}
	t.botRuns = bot
	//hepccl:amortized
	if cap(t.left) < h {
		t.left = make([]int32, h)
		t.right = make([]int32, h)
	}
	left := t.left[:h]
	right := t.right[:h]
	// The fence loads and the edge-run loads they bound are loaded values
	// (rowOff is monotone with rowOff[h] == len(runs)).
	//hepccl:checked
	for r := 0; r < h; r++ {
		left[r], right[r] = -1, -1
		lo, hi := rowOff[r], rowOff[r+1]
		if lo == hi {
			continue
		}
		if runs[lo].start == t.c0 {
			left[r] = runIsl[lo]
		}
		if runs[hi-1].end == t.c1 {
			right[r] = runIsl[hi-1]
		}
	}
	t.left, t.right = left, right
}

// merge reconciles tile boundaries and reduces per-island accumulators into
// the final compact island list. It runs on the caller's goroutine after the
// pool barrier; its cost is O(boundary runs + islands), independent of frame
// area and lit interior content.
//
//hepccl:hotpath
func (e *Engine) merge(dst []runccl.Island) []runccl.Island {
	// Assign each tile's islands a contiguous range of global nodes and copy
	// their accumulators into the engine-wide reduction arrays.
	tiles := e.tiles
	base := e.base
	n := int32(0)
	// A tile-count view of base ties the prefix-sum store to the range bound.
	bh := base[:len(tiles)]
	for i := range tiles {
		bh[i] = n
		n += tiles[i].nIsl
	}
	base[len(tiles)] = n
	nn := int(n)
	//hepccl:amortized
	if cap(e.gPixels) < nn {
		e.gPixels = make([]uint32, nn)
		e.gSums = make([]int64, nn)
		e.gRowM = make([]int64, nn)
		e.gColM = make([]int64, nn)
		e.gMinPos = make([]int64, nn)
	}
	gPixels := e.gPixels[:nn]
	gSums := e.gSums[:nn]
	gRowM := e.gRowM[:nn]
	gColM := e.gColM[:nn]
	gMinPos := e.gMinPos[:nn]
	// Scatter each tile's accumulators into its contiguous node range. Tiles
	// write disjoint ranges, so the copy parallelizes with no synchronization
	// beyond the pool barrier; it is a second barrier phase only when the
	// island population is large enough to amortize the two channel crossings
	// per worker — small frames stay on the caller.
	var s0 int64
	if e.instrument {
		s0 = nanotime()
	}
	e.next.Store(0)
	if bg := e.nWorkers - 1; bg > 0 && nn >= scatterParallelMin {
		e.job = jobScatter
		for i := 0; i < bg; i++ {
			e.wake <- struct{}{}
		}
		e.runScatter()
		for i := 0; i < bg; i++ {
			<-e.done
		}
	} else {
		e.runScatter()
	}
	if e.instrument {
		e.scatterNs = nanotime() - s0
	}

	guf := &e.guf
	guf.Reset(nn)
	var dil int32
	if e.eight {
		dil = 1
	}

	// Horizontal seams (between vertically adjacent tile rows): one overlap
	// sweep per seam over the full-width boundary rows. Concatenating every
	// tile's boundary runs left to right yields sorted lists, and the ±1
	// dilation makes the sweep also union 8-way corner adjacency where four
	// tiles meet.
	for tr := 0; tr+1 < e.trows; tr++ {
		upper := e.upper[:0]
		lower := e.lower[:0]
		// Tile-grid products stay inside the tiles/base arrays by the grid
		// construction (tr < trows-1, tc < tcols).
		//hepccl:checked
		for tc := 0; tc < e.tcols; tc++ {
			t := &tiles[tr*e.tcols+tc]
			for _, br := range t.botRuns {
				upper = append(upper, bRun{br.start, br.end, base[tr*e.tcols+tc] + br.isl})
			}
			t = &tiles[(tr+1)*e.tcols+tc]
			for _, br := range t.topRuns {
				lower = append(lower, bRun{br.start, br.end, base[(tr+1)*e.tcols+tc] + br.isl})
			}
		}
		e.upper, e.lower = upper, lower
		jj := 0
		for i := range lower {
			a := lower[i].start - dil
			b := lower[i].end + dil
			// Re-prove the persistent cursor each row: its non-negativity
			// does not survive the loop phi.
			j := int(uint32(jj))
			for j < len(upper) && upper[j].end <= a {
				j++
			}
			jj = j
			for k := int(uint32(j)); k < len(upper) && upper[k].start < b; k++ {
				guf.Union(lower[i].isl, upper[k].isl)
			}
		}
	}

	// Vertical seams (between horizontally adjacent tiles): per-row edge
	// matching. Same-row adjacency for 4-way; 8-way adds the two diagonals
	// within the band — diagonals that leave the band cross a tile corner and
	// are already covered by the dilated horizontal-seam sweep above.
	// Tile-grid products index inside tiles/base by construction, and
	// horizontally adjacent tiles share their band's height, so the edge
	// lists are equal-length — neither visible to compiler range proofs.
	//hepccl:checked
	for tr := 0; tr < e.trows; tr++ {
		for tc := 0; tc+1 < e.tcols; tc++ {
			lt := &tiles[tr*e.tcols+tc]
			rt := &tiles[tr*e.tcols+tc+1]
			lb, rb := base[tr*e.tcols+tc], base[tr*e.tcols+tc+1]
			h := len(lt.right)
			for r := 0; r < h; r++ {
				l := lt.right[r]
				if l < 0 {
					continue
				}
				ln := lb + l
				if rr := rt.left[r]; rr >= 0 {
					guf.Union(ln, rb+rr)
				}
				if e.eight {
					if r > 0 {
						if rr := rt.left[r-1]; rr >= 0 {
							guf.Union(ln, rb+rr)
						}
					}
					if r+1 < h {
						if rr := rt.left[r+1]; rr >= 0 {
							guf.Union(ln, rb+rr)
						}
					}
				}
			}
		}
	}

	// Reduce accumulators onto roots. denseUF's min-root unions guarantee
	// root < member, so one ascending fold after Flatten is complete.
	guf.Flatten()
	k := 0
	// Roots are loaded parent values with root ≤ member < nn — the
	// union-by-minimum invariant, outside compiler range proofs.
	//hepccl:checked
	for x := 0; x < nn; x++ {
		r := guf.Root(int32(x))
		if int(r) == x {
			k++
			continue
		}
		gPixels[r] += gPixels[x]
		gSums[r] += gSums[x]
		gRowM[r] += gRowM[x]
		gColM[r] += gColM[x]
		if gMinPos[x] < gMinPos[r] {
			gMinPos[r] = gMinPos[x]
		}
	}

	// Renumber 1..K by first raster appearance — the numbering a single
	// raster-order pass (runccl, the per-pixel path) produces. Tile-raster
	// node order is not frame-raster order, so sort the roots by the position
	// of their first lit pixel.
	//hepccl:amortized
	if cap(e.ord) < k {
		e.ord = make([]ordIsl, k)
	}
	ord := e.ord[:0]
	// Same root invariant as the reduction above.
	//hepccl:checked
	for x := 0; x < nn; x++ {
		if int(guf.Root(int32(x))) == x {
			ord = append(ord, ordIsl{gMinPos[x], int32(x)})
		}
	}
	e.ord = ord
	e.orderByPos(ord)

	b := len(dst)
	//hepccl:amortized
	if cap(dst) < b+k {
		grown := make([]runccl.Island, b+k, b+k+k/2+8)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:b+k]
	out := dst[b:][:len(ord)]
	// Every ord entry's node is a root < nn, an invariant of the reduction
	// pass the compiler cannot carry into the gather loads.
	//hepccl:checked
	for i := range ord {
		x := ord[i].node
		out[i] = runccl.Island{
			Label:  int32(i + 1),
			Pixels: gPixels[x],
			Sum:    gSums[x],
			RowQ16: runccl.Q16Ratio(gRowM[x], gSums[x]),
			ColQ16: runccl.Q16Ratio(gColM[x], gSums[x]),
		}
	}
	return dst
}

// orderByPos puts the root list (built in ascending node order) into
// ascending first-appearance order.
//
// For the default full-width row-band decomposition (one tile column) the
// list is already ordered and the call is free: local island ids are assigned
// in band-raster order, which within a full-width band is frame-raster order;
// tile bases grow with the band row; and the min-root union rule makes every
// merged island's root the component that contains its first lit pixel (that
// component lives in the island's earliest band and first-appears at the
// island's global minimum position, so it carries the smallest local id among
// the island's components there). Ascending node order is therefore exactly
// ascending first-appearance order — no comparison sort at all.
//
// General tile grids break that guarantee (node order is tile-row-major, and
// a root's own first appearance need not be the island's minimum — only the
// folded gMinPos key is), so the roots are ordered by their minPos key with a
// two-pass LSD counting sort: a stable scatter by column digit, then by row
// digit, each pass one count / prefix-sum / scatter over a frame-dimension
// count array. O(K + rows + cols), no data-dependent branching, and
// allocation-free against persistent scratch — replacing the former
// comparison shellsort.
//
//hepccl:hotpath
func (e *Engine) orderByPos(ord []ordIsl) {
	if e.tcols == 1 || len(ord) < 2 {
		return
	}
	k := len(ord)
	//hepccl:amortized
	if cap(e.ordTmp) < k {
		e.ordTmp = make([]ordIsl, k)
	}
	//hepccl:amortized
	if e.cntCol == nil {
		e.cntCol = make([]int32, e.cols)
		e.cntRow = make([]int32, e.rows)
	}
	tmp := e.ordTmp[:k]
	cols := int64(e.cols)

	// Every digit below is pos mod/div cols with pos = row·cols + col for
	// an in-frame pixel, so the count indexes lie in [0, cols) and
	// [0, rows) and the scatter targets are prefix sums bounded by k — sort
	// invariants outside compiler range proofs.
	cntCol := e.cntCol
	for i := range cntCol {
		cntCol[i] = 0
	}
	//hepccl:checked
	for i := range ord {
		cntCol[ord[i].pos%cols]++
	}
	off := int32(0)
	for i := range cntCol {
		c := cntCol[i]
		cntCol[i] = off
		off += c
	}
	//hepccl:checked
	for i := range ord {
		c := ord[i].pos % cols
		tmp[cntCol[c]] = ord[i]
		cntCol[c]++
	}

	cntRow := e.cntRow
	for i := range cntRow {
		cntRow[i] = 0
	}
	//hepccl:checked
	for i := range tmp {
		cntRow[tmp[i].pos/cols]++
	}
	off = 0
	for i := range cntRow {
		c := cntRow[i]
		cntRow[i] = off
		off += c
	}
	//hepccl:checked
	for i := range tmp {
		r := tmp[i].pos / cols
		ord[cntRow[r]] = tmp[i]
		cntRow[r]++
	}
}
