package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// Stage names a span: the batch and the layer calls inside it.
type Stage uint8

const (
	StageBatch  Stage = iota // one drain: everything below happens inside it
	StageDecode              // adapt.StreamReader.ReadEventInto
	StageWAL                 // wal.Writer.Append of the captured wire bytes
	StageServe               // adapt.Pipeline.ServeBatch (or ServeEvent)
	StageEncode              // adapt.EventRecord.AppendTo
	numStages
)

var stageNames = [numStages]string{"batch", "adapt.decode", "wal.append", "adapt.serve", "adapt.encode"}

func (s Stage) String() string { return stageNames[s] }

// Span is one timed interval at a layer boundary. Spans of one batch share
// its Batch id; Parent is the index of the span that caused this one (-1 for
// a batch span). Times are nanoseconds since the trace began.
type Span struct {
	Stage  Stage
	Batch  int32
	Parent int32
	Start  int64
	End    int64
}

// Tracer records spans into a preallocated buffer; nothing is written until
// the run ends. A nil Tracer records nothing and costs one compare, so the
// identical loop runs with spans off for the untraced baseline.
type Tracer struct {
	t0    time.Time
	spans []Span
	// dropped counts spans that did not fit; a traced rep with drops is
	// not used.
	dropped int
}

// NewTracer preallocates room for capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

// Reset forgets the recorded spans, keeps the buffer, and restarts the
// trace's clock.
func (t *Tracer) Reset() {
	t.spans = t.spans[:0]
	t.dropped = 0
	t.t0 = time.Now()
}

// Begin opens a span and returns its index (-1 when not recorded).
func (t *Tracer) Begin(stage Stage, batch, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Stage: stage, Batch: batch, Parent: parent,
		Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

// End closes the span Begin returned.
func (t *Tracer) End(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// SelfTimes sums, per stage, each span's duration minus the part its child
// spans cover. Children never overlap one another here (the spine is one
// goroutine), so the covered part is the sum of their durations.
func SelfTimes(spans []Span) [numStages]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var self [numStages]int64
	for i, s := range spans {
		self[s.Stage] += s.End - s.Start - child[i]
	}
	return self
}

// spineBatch is how many events the traced spine decodes before one
// ServeBatch, mirroring a saturated worker's drain.
const spineBatch = 32

// Spine replays a workload's exact wire bytes through the layers' public
// functions on one goroutine, the way a reader goroutine and a worker do
// between them inside hepccld: decode -> [WAL append] -> serve -> encode.
type Spine struct {
	in     *Inputs
	p      *adapt.Pipeline
	rd     *bytes.Reader
	sr     *adapt.StreamReader
	pkts   [][]adapt.Packet
	recs   []adapt.EventRecord
	errs   []error
	out    []byte
	offs   []int // record boundaries in out, for verification
	wlog   *wal.Writer
	walDir string
	batch  int
	// Single serves event by event (ServeEvent), the paced regime's path.
	Single bool
	// badPackets accumulates the stream reader's count over finished passes.
	badPackets int
}

// NewSpine builds the in-process spine for in, with a WAL under out when
// the workload records.
func NewSpine(in *Inputs, out string) (*Spine, error) {
	p, err := in.NewPipeline(adapt.ServeRun)
	if err != nil {
		return nil, fmt.Errorf("spine pipeline: %w", err)
	}
	batch := spineBatch
	if batch > len(in.Events) {
		batch = len(in.Events)
	}
	s := &Spine{
		in: in, p: p, batch: batch,
		rd:   bytes.NewReader(in.Wire),
		pkts: make([][]adapt.Packet, batch),
		recs: make([]adapt.EventRecord, batch),
		errs: make([]error, batch),
		offs: make([]int, batch+1),
	}
	s.sr = adapt.NewStreamReader(s.rd)
	if in.W.WAL {
		s.walDir, err = os.MkdirTemp(out, "wal-spine-")
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("spine wal dir: %w", err)
		}
		s.wlog, _, err = wal.Open(wal.Options{Dir: s.walDir, SegmentBytes: 64 << 20, Retain: 2})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("spine wal: %w", err)
		}
		s.sr.SetCapture(true)
	}
	return s, nil
}

// Close releases the pipeline and removes the WAL scratch.
func (s *Spine) Close() {
	s.p.Close()
	if s.wlog != nil {
		_ = s.wlog.Close() // scratch log, removed on the next line
	}
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir) // scratch under bench/out; a leftover is harmless
	}
}

// Bad is the number of frames the stream reader rejected over every pass.
func (s *Spine) Bad() int { return s.badPackets + s.sr.BadPackets }

// Pass runs every event of the workload through the spine once. With verify
// set it also compares each encoded record with the oracle's.
func (s *Spine) Pass(tr *Tracer, batchID *int32, verify bool) error {
	s.badPackets += s.sr.BadPackets
	s.rd.Reset(s.in.Wire)
	s.sr.Reset(s.rd)
	asics := s.in.Cfg.ASICs
	n := len(s.in.Events)
	for ev := 0; ev < n; {
		nb := s.batch
		if nb > n-ev {
			nb = n - ev
		}
		id := *batchID
		*batchID++
		b := tr.Begin(StageBatch, id, -1)

		var err error
		if s.wlog == nil {
			d := tr.Begin(StageDecode, id, b)
			for k := 0; k < nb && err == nil; k++ {
				s.pkts[k], err = s.sr.ReadEventInto(s.pkts[k], asics)
			}
			tr.End(d)
		} else {
			// The append consumes the reader's capture buffer, which the
			// next decode overwrites, so the two interleave per event as
			// they do in the daemon's reader goroutine.
			for k := 0; k < nb && err == nil; k++ {
				d := tr.Begin(StageDecode, id, b)
				s.pkts[k], err = s.sr.ReadEventInto(s.pkts[k], asics)
				tr.End(d)
				if err == nil {
					w := tr.Begin(StageWAL, id, b)
					err = s.wlog.Append(s.pkts[k][0].Event, s.sr.Captured())
					tr.End(w)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("spine event %d: %w", ev, err)
		}

		sv := tr.Begin(StageServe, id, b)
		if s.Single {
			for k := 0; k < nb; k++ {
				s.errs[k] = s.p.ServeEvent(s.pkts[k], &s.recs[k])
			}
		} else {
			s.p.ServeBatch(s.pkts[:nb], s.recs[:nb], s.errs[:nb])
		}
		tr.End(sv)

		en := tr.Begin(StageEncode, id, b)
		s.out = s.out[:0]
		for k := 0; k < nb; k++ {
			s.offs[k] = len(s.out)
			s.out = s.recs[k].AppendTo(s.out)
		}
		s.offs[nb] = len(s.out)
		tr.End(en)
		tr.End(b)

		for k := 0; k < nb; k++ {
			if s.errs[k] != nil {
				return fmt.Errorf("spine serve event %d: %w", ev+k, s.errs[k])
			}
			if verify && !bytes.Equal(s.out[s.offs[k]+4:s.offs[k+1]], s.in.Oracle[ev+k][4:]) {
				return fmt.Errorf("spine event %d: record differs from the per-pixel oracle", ev+k)
			}
		}
		ev += nb
	}
	return nil
}

// SpineResult is the traced run's outcome for one workload.
type SpineResult struct {
	// UntracedNs and TracedNs are per-rep ns per event of the identical
	// loop with spans off and on.
	UntracedNs, TracedNs []float64
	// SelfNs is the best traced rep's per-stage self time per event, and
	// Spans that rep's spans.
	SelfNs [numStages]float64
	Spans  []Span
	Events int // events per rep
}

// spineRepTarget is how long one spine rep aims to run; the pass count that
// reaches it is fixed by the warm-up pass. Short reps buy more of them: the
// best of many is what steadies a memory-bound loop on a shared host.
const spineRepTarget = 20 * time.Millisecond

// RunSpine runs untraced and traced reps in pairs (so a slow window lands on
// both) until minReps of each are done and budget is spent.
func RunSpine(s *Spine, budget time.Duration, minReps int) (*SpineResult, error) {
	var batchID int32
	start := time.Now()
	if err := s.Pass(nil, &batchID, true); err != nil { // warm-up, verified
		return nil, err
	}
	passes := int(spineRepTarget/time.Since(start)) + 1
	n := len(s.in.Events)
	batchesPerPass := (n + s.batch - 1) / s.batch
	spansPerBatch := 4
	if s.wlog != nil {
		spansPerBatch = 3 + 2*s.batch
	}
	tr := NewTracer(passes * batchesPerPass * spansPerBatch)
	best := NewTracer(cap(tr.spans))
	res := &SpineResult{Events: passes * n}
	bestNs := 0.0
	for rep := 0; rep < minReps || time.Since(start) < budget; rep++ {
		// Which of the pair goes first alternates, so nothing periodic in
		// the loop (a WAL rotation every few passes) can favour one side.
		order := []*Tracer{nil, tr}
		if rep%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, t := range order {
			batchID = 0
			if t != nil {
				t.Reset()
			}
			t0 := time.Now()
			for p := 0; p < passes; p++ {
				if err := s.Pass(t, &batchID, false); err != nil {
					return nil, err
				}
			}
			ns := float64(time.Since(t0)) / float64(res.Events)
			if t == nil {
				res.UntracedNs = append(res.UntracedNs, ns)
				continue
			}
			res.TracedNs = append(res.TracedNs, ns)
			if t.dropped == 0 && (bestNs == 0 || ns < bestNs) {
				bestNs = ns
				tr, best = best, tr
			}
		}
	}
	if bestNs == 0 {
		return nil, fmt.Errorf("spine: every traced rep overflowed the span buffer")
	}
	res.Spans = best.spans
	for st, ns := range SelfTimes(best.spans) {
		res.SelfNs[st] = float64(ns) / float64(res.Events)
	}
	return res, nil
}

// StageSum is the self time of the layer stages (everything but the batch
// span's own bookkeeping) per event.
func (r *SpineResult) StageSum() float64 {
	var sum float64
	for st := StageDecode; st < numStages; st++ {
		sum += r.SelfNs[st]
	}
	return sum
}

// traceSpan is a span as written to the trace file.
type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Batch   int32  `json:"batch"`
	Parent  int32  `json:"parent"` // id of the causing span, -1 for a batch
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// WriteTrace writes the best traced rep's spans to out/trace-<workload>.json.
func WriteTrace(out, workload string, spans []Span) (string, error) {
	ts := make([]traceSpan, len(spans))
	for i, s := range spans {
		ts[i] = traceSpan{ID: i, Name: s.Stage.String(), Batch: s.Batch, Parent: s.Parent,
			StartNs: s.Start, EndNs: s.End}
	}
	b, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Spans    []traceSpan `json:"spans"`
	}{workload, ts})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(out, "trace-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
