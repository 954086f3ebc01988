package adapt

import (
	"fmt"
	"slices"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
	"github.com/wustl-adapt/hepccl/internal/runccl"
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
//   - sinkRuns (2D, every frame size): lit pixels set bits of a lit bitmap
//     and prefix sums in a runccl.Batch, which cuts runs from the bitmap and
//     labels them — no merged image.
//   - sinkImage (ServePixel, 2D or 1D): lit pixels fill the merged image,
//     which flood fill labels — the differential-testing oracle.
//   - sink1D (1D ServeRun): consecutive lit channels are the 1D islands.
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
	lit    []Lit        // ServeEvent: integrateEvent's output
}

// ServeLit serves one zero-suppressed event into rec, reusing rec's island
// storage and the pipeline's scratch. It is the serving entry point of
// internal/server: a worker serves each event it drains from its rings. Lit
// lists must be in ascending channel order with every channel below the
// pipeline's channel count, which both producers guarantee. An event marked
// Bad carries no lit channels and yields an empty record the caller
// discards. On the run sink the event is labeled in one reused arena whose
// roots are the record's islands.
//
//hepccl:hotpath
func (p *Pipeline) ServeLit(ev LitEvent, rec *EventRecord) {
	rec.Event = ev.Event
	switch {
	case p.runBatch != nil:
		p.sinkRuns(ev.Lit)
		rec.Islands = p.runBatch.Islands(rec.Islands[:0])
	case p.cfg.Serve == ServePixel:
		//hepccl:coldpath
		p.sinkImage(ev.Lit, rec) // the oracle: never a production backend
	default:
		p.sink1D(ev.Lit, rec)
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

// sinkRuns feeds one event's lit pixels (flat order is raster order) to the
// emptied run arena in one pass with no branch on a pixel: each sets its bit
// in the lit bitmap and writes its prefix sums of photons and of lit index ×
// photons. EndEvent then cuts the runs from the bitmap and labels them.
//
//hepccl:hotpath
func (p *Pipeline) sinkRuns(lit []Lit) {
	b := p.runBatch
	b.BeginEvent()
	// Channels past the pixel array pad the last ASIC: the list's tail.
	px := p.rows * p.cols
	for len(lit) > 0 && lit[len(lit)-1].Channel() >= px {
		lit = lit[:len(lit)-1]
	}
	bitmap, pre := b.Feed(len(lit))
	pre = pre[:len(lit)]
	var acc runccl.Prefix
	for i, l := range lit {
		w, bit := b.Bit(l.Channel())
		// Bit places every pixel below px, all the trim left, in the bitmap.
		//hepccl:checked
		bitmap[w] |= bit
		v := int64(p.photons(l))
		acc.Sum += v
		acc.Mom += int64(i) * v
		pre[i] = acc
	}
	b.EndEvent()
}

// sinkImage fills the merged photo-electron image from one event's lit
// pixels, labels it with flood fill, and folds each island's pixel count, sum
// and integer row/column moments into its record. Flood fill numbers islands
// 1..K in raster order of their first pixel, the order records carry. The
// image has the serving geometry New resolved, so a 1D config's channels are
// one row and its islands are runs of consecutive lit channels.
func (p *Pipeline) sinkImage(lit []Lit, rec *EventRecord) {
	sc := &p.serve
	px := p.rows * p.cols
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
	g, err := grid.FromFlat(p.rows, p.cols, merged)
	if err != nil {
		panic(err) // New proved the geometry positive
	}
	labels, err := labeling.FloodFill{}.Label(g, p.conn)
	if err != nil {
		panic(err) // New resolved a valid connectivity
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
		rows[l-1] += int64(i/p.cols) * v
		cols[l-1] += int64(i%p.cols) * v
	}
	for k := range rec.Islands {
		isl := &rec.Islands[k]
		isl.RowQ16 = runccl.Q16Ratio(rows[k], isl.Sum)
		isl.ColQ16 = runccl.Q16Ratio(cols[k], isl.Sum)
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
		ColQ16: runccl.Q16Ratio(weighted, sum),
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

// ServeBatch is ServeEvent over a batch. events, recs, and errs must have
// equal length. Per-event failures are recorded in errs[i] (nil on success)
// and do not stop the batch; recs[i] is unspecified when errs[i] != nil. It
// returns the number of events served successfully.
func (p *Pipeline) ServeBatch(events [][]Packet, recs []EventRecord, errs []error) int {
	if len(recs) != len(events) || len(errs) != len(events) {
		panic("adapt: ServeBatch requires len(events) == len(recs) == len(errs)")
	}
	ok := 0
	for i, packets := range events {
		if errs[i] = p.ServeEvent(packets, &recs[i]); errs[i] == nil {
			ok++
		}
	}
	return ok
}
