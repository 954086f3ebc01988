package adapt

import (
	"fmt"
	"slices"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

// Serving fast path. ProcessEvent runs the cycle-level HLS co-simulation of
// the island-detection design — the right tool for reproducing the paper's
// tables, and ~5x too slow for a network server that must sustain the §5.5
// event rates in software. Serving produces the same kind of downlink record
// through the functional route: identical per-channel stage math (integrate →
// pedestal subtract → photon count → zero-suppress → merge), then island
// labeling producing the same partition as the CCL design (with the corrected
// resolver) and integer Q16.16 centroids, with all scratch storage reused
// across events.
//
// There is one seam: the lit list (LitEvent) — the channels that survive
// zero-suppression, in raster order, with their integrals' excess over the
// suppression limit. Two producers
// make lit lists: the stream reader's wire scan (StreamReader.ReadSuppressed,
// the daemon's path) and integrateEvent over decoded packets (the reference,
// behind ServeEvent/ServeBatch). Three sinks consume them, chosen by the
// pipeline's configuration:
//
//   - sinkRuns (2D, every frame size): lit pixels fold directly into maximal
//     horizontal runs in a runccl.Batch — no merged image, no bitmap — which
//     labels them as they arrive.
//   - sinkImage (ServePixel): lit pixels fill the merged image, which flood
//     fill labels — the differential-testing oracle.
//   - sink1D: consecutive lit channels are the 1D islands.
//
// Differences from ProcessEvent + RecordOf, by design:
//
//   - island labels are compact 1..K in raster order rather than merge-table
//     root numbers (the partition of pixels into islands is identical);
//   - the corrected merge-table resolver is used, so the §6 corner case of
//     the published hardware does not occur;
//   - no synthesis report, waveform trace, or intermediate label state is
//     produced.

// serveScratch is per-pipeline reusable serving storage. A Pipeline is not
// safe for concurrent use; servers give each worker its own.
type serveScratch struct {
	merged []grid.Value // image sink: photo-electron image
	lit    []Lit        // ServeEvent/ServeBatch: integrateEvent's arena
	events []LitEvent   // ServeBatch: one lit event per input event
}

// ServeLitBatch serves a batch of zero-suppressed events into recs, reusing
// each record's island storage and the pipeline's scratch: ServeLit per
// event. It is the serving entry point of internal/server: workers drain
// their rings into it. Lit lists must be in ascending channel order with
// every channel below the pipeline's channel count, which both producers
// guarantee. Events marked Bad carry no lit channels and yield an empty
// record the caller discards.
//
//hepccl:hotpath
func (p *Pipeline) ServeLitBatch(events []LitEvent, recs []EventRecord) {
	//hepccl:coldpath
	if len(recs) != len(events) {
		panic("adapt: ServeLitBatch requires len(events) == len(recs)")
	}
	for i := range events {
		p.ServeLit(events[i], &recs[i])
	}
}

// ServeLit serves one zero-suppressed event. On the run sink the event's
// runs land in one small arena that labels them as they arrive — each run
// linked to the row above, island totals folded into the surviving root at
// the link — so the record's islands are the arena's roots, emitted in one
// sweep; the arena is reused by the next event.
//
//hepccl:hotpath
func (p *Pipeline) ServeLit(ev LitEvent, rec *EventRecord) {
	rec.Event = ev.Event
	switch {
	case !p.cfg.Detection.TwoDimension:
		p.sink1D(ev.Lit, rec)
	case p.runBatch != nil:
		p.sinkRuns(ev.Lit)
		rec.Islands = p.runBatch.Islands(0, rec.Islands[:0])
	default:
		//hepccl:coldpath
		p.sinkImage(ev.Lit, rec) // the oracle: never a production backend
	}
}

// photons is the photon count of a lit channel: PhotonCount(raw − pedestal,
// gain) = (net + gain/2) / gain, where net = raw − pedestal is exactly the
// channel's excess over its limit plus the cutoff (limit = cutoff + pedestal),
// so no pedestal is loaded. The division is the pipeline's precomputed magic
// multiply when the numerator is in range (it always is for a modest
// integral); the fallback keeps saturated channels bit-exact. The suppression
// compare already proved the channel lit (raw ≥ limit ⇔ pe > threshold), so
// no zero-suppress re-check follows.
//
//hepccl:hotpath
func (p *Pipeline) photons(l Lit) grid.Value {
	net := l.Excess() + p.cutoff
	num := net + p.cfg.GainADC/2
	if uint64(num) < p.pcMax {
		return grid.Value(uint64(num) * p.pcM >> 47)
	}
	return PhotonCount(net, p.cfg.GainADC)
}

// sinkRuns streams one event's lit pixels — ascending flat order is raster
// order — into maximal horizontal runs, the one event of the emptied run
// arena, folding each run's charge sum and column moment as it goes. A lit
// pixel extends the open run exactly when it is the next flat index on the
// same row; any gap or row change seals the run. Row and column come from one
// division per row change, not per pixel.
//
//hepccl:hotpath
func (p *Pipeline) sinkRuns(lit []Lit) {
	b := p.runBatch
	b.Reset()
	b.BeginEvent()
	cols := p.cfg.Detection.TwoD.Cols
	px := p.cfg.Detection.TwoD.Rows * cols
	var row, rowStart, rowEnd int
	var start, end int32
	var sum, colm int64
	prev := -2
	for _, l := range lit {
		fl := l.Channel()
		if fl >= px {
			break // padded channels beyond the pixel array: never downlinked
		}
		v := int64(p.photons(l))
		if fl == prev+1 && fl < rowEnd {
			end++
			sum += v
			colm += int64(fl-rowStart) * v
		} else {
			if prev >= 0 {
				b.AddRun(int32(row), start, end, sum, colm)
			}
			if fl >= rowEnd {
				row = fl / cols
				rowStart = row * cols
				rowEnd = rowStart + cols
			}
			col := fl - rowStart
			start, end = int32(col), int32(col)+1
			sum = v
			colm = int64(col) * v
		}
		prev = fl
	}
	if prev >= 0 {
		b.AddRun(int32(row), start, end, sum, colm)
	}
	b.EndEvent()
}

// sinkImage fills the merged photo-electron image from one event's lit
// pixels, labels it with flood fill, and folds each island's pixel count, sum
// and integer row/column moments into its record. Flood fill numbers islands
// 1..K in raster order of their first pixel, the order records carry.
func (p *Pipeline) sinkImage(lit []Lit, rec *EventRecord) {
	sc := &p.serve
	det := p.cfg.Detection.TwoD
	px := det.Rows * det.Cols
	if sc.merged == nil {
		sc.merged = make([]grid.Value, px)
	}
	merged := sc.merged
	for i := range merged {
		merged[i] = 0
	}
	for _, l := range lit {
		if fl := l.Channel(); fl < px {
			merged[fl] = p.photons(l)
		}
	}
	conn := grid.FourWay // anything but 8-way labels 4-way, as the run path does
	if det.Connectivity == grid.EightWay {
		conn = grid.EightWay
	}
	g, err := grid.FromFlat(det.Rows, det.Cols, merged)
	if err != nil {
		panic(err) // New proved the geometry positive
	}
	labels, err := labeling.FloodFill{}.Label(g, conn)
	if err != nil {
		panic(err) // conn is valid by construction
	}
	rec.Islands = rec.Islands[:0]
	var rows, cols []int64 // moments, indexed like rec.Islands
	for i, l := range labels.Flat() {
		if l == 0 {
			continue
		}
		if int(l) > len(rec.Islands) {
			rec.Islands = append(rec.Islands, IslandRecord{Label: l})
			rows, cols = append(rows, 0), append(cols, 0)
		}
		v := int64(merged[i])
		isl := &rec.Islands[l-1]
		isl.Pixels++
		isl.Sum += v
		rows[l-1] += int64(i/det.Cols) * v
		cols[l-1] += int64(i%det.Cols) * v
	}
	for k := range rec.Islands {
		isl := &rec.Islands[k]
		isl.RowQ16 = q16Ratio(rows[k], isl.Sum)
		isl.ColQ16 = q16Ratio(cols[k], isl.Sum)
	}
}

// sink1D emits runs of consecutive lit channels — the functional equivalent
// of the 1D island detection + centroiding design.
//
//hepccl:hotpath
func (p *Pipeline) sink1D(lit []Lit, rec *EventRecord) {
	rec.Islands = rec.Islands[:0]
	var start int
	var sum, weighted int64
	prev := -2
	for _, l := range lit {
		fl := l.Channel()
		if fl != prev+1 {
			if prev >= 0 {
				appendIsland1D(rec, start, prev, sum, weighted)
			}
			start, sum, weighted = fl, 0, 0
		}
		v := int64(p.photons(l))
		sum += v
		weighted += int64(fl) * v
		prev = fl
	}
	if prev >= 0 {
		appendIsland1D(rec, start, prev, sum, weighted)
	}
}

// appendIsland1D appends the 1D island spanning channels [first, last].
//
//hepccl:hotpath
func appendIsland1D(rec *EventRecord, first, last int, sum, weighted int64) {
	//hepccl:amortized
	rec.Islands = append(rec.Islands, IslandRecord{
		Label:  int32(len(rec.Islands) + 1),
		Pixels: uint32(last - first + 1),
		Sum:    sum,
		RowQ16: 0,
		ColQ16: q16Ratio(weighted, sum),
	})
}

// integrateEvent is the reference producer of lit lists: integration +
// zero-suppression over an event's decoded packets, appended to lit in
// ascending channel order whatever order the packets came in. The packets
// must have passed checkEvent.
func (p *Pipeline) integrateEvent(packets []Packet, lit []Lit) []Lit {
	lo := len(lit)
	for i := range packets {
		lit = p.sup.integratePacket(&packets[i], lit)
	}
	slices.Sort(lit[lo:])
	return lit
}

// ServeEvent serves one assembled, decoded event: checkEvent, the reference
// integration, then the same sinks the daemon's wire path feeds. It is the
// []Packet reference the differential fuzzers and the co-simulation compare
// against; internal/server serves from lit lists and never calls it.
func (p *Pipeline) ServeEvent(packets []Packet, rec *EventRecord) error {
	if err := p.checkEvent(packets); err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	sc := &p.serve
	sc.lit = p.integrateEvent(packets, sc.lit[:0])
	p.ServeLit(LitEvent{Event: packets[0].Event, Lit: sc.lit}, rec)
	return nil
}

// ServeBatch is ServeEvent over a batch, served through ServeLitBatch.
// events, recs, and errs must have equal length. Per-event failures are
// recorded in errs[i] (nil on success) and do not stop the batch. It returns
// the number of events served successfully.
func (p *Pipeline) ServeBatch(events [][]Packet, recs []EventRecord, errs []error) int {
	if len(recs) != len(events) || len(errs) != len(events) {
		panic("adapt: ServeBatch requires len(events) == len(recs) == len(errs)")
	}
	sc := &p.serve
	lit, evs := sc.lit[:0], sc.events[:0]
	ok := 0
	for i, packets := range events {
		var ev LitEvent
		if err := p.checkEvent(packets); err != nil {
			errs[i] = fmt.Errorf("adapt: %w", err)
		} else {
			errs[i] = nil
			ok++
			lo := len(lit)
			lit = p.integrateEvent(packets, lit)
			// A later append may move lit to a larger array; this slice then
			// keeps the old one, whose filled prefix is never written again.
			ev = LitEvent{Event: packets[0].Event, Lit: lit[lo:]}
		}
		evs = append(evs, ev)
	}
	sc.lit, sc.events = lit, evs
	p.ServeLitBatch(evs, recs)
	return ok
}

// q16Ratio returns round(num/den × 2^16) in Q16.16, the same rounding the
// streaming centroid divider applies.
func q16Ratio(num, den int64) int32 {
	if den == 0 {
		return 0
	}
	return int32((num<<16 + den/2) / den)
}
