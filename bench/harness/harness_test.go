package harness

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeInputs(t *testing.T, name string, seed uint64) *Inputs {
	t.Helper()
	w, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(w.Smoke(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGenerateIsDeterministicInTheSeed(t *testing.T) {
	for _, name := range []string{"cta-sat", "cta-dense-sat", "adapt1d-sat"} {
		a, b, c := smokeInputs(t, name, 7), smokeInputs(t, name, 7), smokeInputs(t, name, 8)
		if !bytes.Equal(a.Wire, b.Wire) {
			t.Errorf("%s: the same seed gave different wire bytes", name)
		}
		for i := range a.Oracle {
			if !bytes.Equal(a.Oracle[i], b.Oracle[i]) {
				t.Errorf("%s: the same seed gave a different oracle record %d", name, i)
			}
		}
		if bytes.Equal(a.Wire, c.Wire) {
			t.Errorf("%s: another seed gave identical wire bytes", name)
		}
		if a.Counts() != b.Counts() {
			t.Errorf("%s: counts differ for one seed: %+v vs %+v", name, a.Counts(), b.Counts())
		}
	}
	// cta-15k-wal replays cta-sat's events: only the daemon differs.
	if !bytes.Equal(smokeInputs(t, "cta-sat", 7).Wire, smokeInputs(t, "cta-15k-wal", 7).Wire) {
		t.Error("cta-15k-wal and cta-sat draw different events from one seed")
	}
}

func TestSetIDKeepsFramesValidAndOracleApplies(t *testing.T) {
	in := smokeInputs(t, "cta-sat", 3)
	in.Events[2].SetID(123456)
	// Re-deriving the oracle decodes Wire again: a bad checksum after the
	// patch would fail the decode, and a record must not depend on the id.
	want := append([]byte(nil), in.Oracle[2]...)
	if err := in.computeOracle(); err != nil {
		t.Fatalf("decode after SetID: %v", err)
	}
	if got := binary.BigEndian.Uint32(in.Oracle[2]); got != 123456 {
		t.Errorf("record carries event id %d, want 123456", got)
	}
	if !bytes.Equal(in.Oracle[2][4:], want[4:]) {
		t.Error("the record's body changed with the event id")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles(range(1, 11), n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		// statistics.quantiles([10, 12, 11, 30, 11.5, 12.5, 10.5, 11.2, 12.1, 11.9], n=4)
		{[]float64{10, 12, 11, 30, 11.5, 12.5, 10.5, 11.2, 12.1, 11.9}, [3]float64{10.875, 11.7, 12.2}},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-9 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSummarizePicksTheMetricOfRecord(t *testing.T) {
	reps := []float64{40, 48, 31, 47, 45}
	if got := Summarize(reps, "1/s", PickHigh).Value; got != 48 {
		t.Errorf("p90 of five rates = %v, want the best, 48", got)
	}
	if got := Summarize(reps, "us", PickLow).Value; got != 31 {
		t.Errorf("p10 of five costs = %v, want the best, 31", got)
	}
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(i + 1)
	}
	if hi, lo := Summarize(forty, "1/s", PickHigh).Value, Summarize(forty, "us", PickLow).Value; hi != 36 || lo != 4 {
		t.Errorf("p90/p10 of 1..40 = %v/%v, want 36/4 (four reps beyond each)", hi, lo)
	}
	s := Summarize(reps, "us", PickMedian)
	if s.Value != 45 || s.Median != 45 {
		t.Errorf("median = %v/%v, want 45", s.Value, s.Median)
	}
	if s.Q1 != 35.5 || s.Q3 != 47.5 {
		t.Errorf("quartiles = %v, %v, want 35.5, 47.5", s.Q1, s.Q3)
	}
}

func TestPercentileLeavesTheTailBeyondIt(t *testing.T) {
	s := make([]int64, 7500)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := Percentile(s, 0.99); got != 7425 {
		t.Errorf("p99 of 1..7500 = %d, want 7425 (75 samples beyond)", got)
	}
	if got := Percentile(s, 0.50); got != 3750 {
		t.Errorf("p50 of 1..7500 = %d, want 3750", got)
	}
	if got := Percentile([]int64{5}, 0.99); got != 5 {
		t.Errorf("p99 of one sample = %d, want it", got)
	}
}

func TestEWMAWindowInvertsTheGauge(t *testing.T) {
	before, window, dt, tau := 2200.0, 3900.0, 4.2, 5.0
	alpha := 1 - math.Exp(-dt/tau)
	after := before + alpha*(window-before)
	if got := EWMAWindow(before, after, dt, tau); math.Abs(got-window) > 1e-6 {
		t.Errorf("EWMAWindow = %v, want %v", got, window)
	}
}

// record builds the downlink bytes the daemon would send for event id of a
// rep over in's templates.
func record(in *Inputs, id uint32) []byte {
	rec := append([]byte(nil), in.Oracle[int(id)%len(in.Oracle)]...)
	binary.BigEndian.PutUint32(rec, id)
	return rec
}

func TestVerifierCountsEveryKindOfFailure(t *testing.T) {
	in := smokeInputs(t, "cta-dense-sat", 5)
	v := verifier{oracle: in.Oracle}
	const base, n = 1000, 20

	v.reset(base, n)
	for i := 0; i < n; i++ {
		if _, ok := v.check(record(in, base+uint32(i))); !ok {
			t.Fatalf("correct record %d rejected", i)
		}
	}
	if v.ok != n || v.received != n {
		t.Fatalf("clean rep: ok=%d received=%d, want %d", v.ok, v.received, n)
	}

	// One flipped byte anywhere after the id fails that record.
	v.reset(base, n)
	for i := 0; i < n; i++ {
		rec := record(in, base+uint32(i))
		if i == 7 {
			rec[len(rec)-1] ^= 0x01
		}
		v.check(rec)
	}
	if failed := n - v.ok; failed != 1 {
		t.Errorf("flipped byte: %d failed, want 1", failed)
	}

	// A dropped record is a failure even though nothing wrong arrived; so is
	// one answered twice (the duplicate must not stand in for the missing).
	v.reset(base, n)
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		v.check(record(in, base+uint32(i)))
	}
	v.check(record(in, base+4))
	if failed := n - v.ok; failed != 1 || v.stray != 1 || v.received != n-1 {
		t.Errorf("dropped+duplicate: failed=%d stray=%d received=%d, want 1, 1, %d", failed, v.stray, v.received, n-1)
	}

	// Records from outside the rep, or too short to frame, are strays.
	v.reset(base, n)
	v.check(record(in, base-1))
	v.check(record(in, base+n))
	v.check([]byte{0, 0})
	if v.stray != 3 || v.received != 0 {
		t.Errorf("strays: stray=%d received=%d, want 3, 0", v.stray, v.received)
	}

	// The right body under the wrong template's id is a mismatch.
	v.reset(base, n)
	rec := record(in, base+1)
	binary.BigEndian.PutUint32(rec, base+2)
	if bytes.Equal(record(in, base+1)[4:], record(in, base+2)[4:]) {
		t.Fatal("two dense events produced the same record; pick another pair")
	}
	if _, ok := v.check(rec); ok {
		t.Error("a record verified against the wrong event's oracle")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{Stage: StageBatch, Batch: 0, Parent: -1, Start: 0, End: 1000},
		{Stage: StageDecode, Batch: 0, Parent: 0, Start: 10, End: 410},
		{Stage: StageServe, Batch: 0, Parent: 0, Start: 420, End: 720},
		{Stage: StageEncode, Batch: 0, Parent: 0, Start: 730, End: 780},
		{Stage: StageBatch, Batch: 1, Parent: -1, Start: 1000, End: 1500},
		{Stage: StageDecode, Batch: 1, Parent: 4, Start: 1000, End: 1100},
		{Stage: StageWAL, Batch: 1, Parent: 4, Start: 1100, End: 1150},
		{Stage: StageDecode, Batch: 1, Parent: 4, Start: 1150, End: 1260},
	}
	self := SelfTimes(spans)
	want := [numStages]int64{
		StageBatch:  (1000 - 400 - 300 - 50) + (500 - 100 - 50 - 110),
		StageDecode: 400 + 100 + 110,
		StageWAL:    50,
		StageServe:  300,
		StageEncode: 50,
	}
	if self != want {
		t.Errorf("SelfTimes = %v, want %v", self, want)
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 1500 {
		t.Errorf("self times sum to %d, want the two batch spans' 1500", total)
	}
}

func TestTracerOffRecordsNothingAndFullDrops(t *testing.T) {
	var off *Tracer
	off.End(off.Begin(StageServe, 0, -1)) // must not panic
	tr := NewTracer(1)
	a := tr.Begin(StageBatch, 0, -1)
	b := tr.Begin(StageServe, 0, a)
	tr.End(b)
	tr.End(a)
	if b != -1 || tr.dropped != 1 || len(tr.spans) != 1 {
		t.Errorf("full tracer: b=%d dropped=%d spans=%d, want -1, 1, 1", b, tr.dropped, len(tr.spans))
	}
}

func TestSpineMatchesOracleAndAccountsForItsTime(t *testing.T) {
	for _, name := range []string{"cta-15k-wal", "adapt1d-sat"} {
		in := smokeInputs(t, name, 11)
		s, err := NewSpine(in, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSpine(s, 0, 2)
		s.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Bad() != 0 {
			t.Errorf("%s: %d bad packets in generated wire", name, s.Bad())
		}
		var total float64
		for _, v := range res.SelfNs {
			total += v
		}
		if res.StageSum() <= 0 || res.StageSum() > total {
			t.Errorf("%s: stage sum %v outside (0, %v]", name, res.StageSum(), total)
		}
		if (res.SelfNs[StageWAL] > 0) != in.W.WAL {
			t.Errorf("%s: wal self time %v, workload WAL=%v", name, res.SelfNs[StageWAL], in.W.WAL)
		}
	}
}

func rowFor(t *testing.T, better string, bound float64, parent, change []float64) Row {
	t.Helper()
	return CompareMetric(Metric{Name: "m", Unit: "u", Better: better, Bound: bound}, parent, change)
}

func TestCompareMetricAppliesBoundSpreadAndPairs(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 100, 99, 101, 100, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if r := rowFor(t, "lower", 0.10, steady, shift(steady, 1.05)); r.Verdict != OK {
		t.Errorf("5%% worse inside a 10%% bound: %s", r.Verdict)
	}
	if r := rowFor(t, "lower", 0.10, steady, shift(steady, 1.15)); r.Verdict != Regression || math.Abs(r.WorseBy-0.15) > 1e-9 {
		t.Errorf("15%% worse: %s worse by %v", r.Verdict, r.WorseBy)
	}
	if r := rowFor(t, "higher", 0.10, steady, shift(steady, 0.85)); r.Verdict != Regression {
		t.Errorf("15%% lower rate: %s", r.Verdict)
	}
	noisy := []float64{100, 140, 80, 120, 90, 130, 70, 110, 100, 150}
	if r := rowFor(t, "lower", 0.10, noisy, shift(noisy, 1.15)); r.Verdict != Unresolved {
		t.Errorf("spread wider than the bound: %s, want unresolved", r.Verdict)
	}
	if r := rowFor(t, "lower", 0.10, noisy, shift(steady, 0.5)); r.Verdict == Unresolved {
		t.Errorf("every change run beats every parent run, yet: %s", r.Verdict)
	}
	// Ten pairs, all won, medians 20% apart against a 1.x IQR: a gain.
	if r := rowFor(t, "lower", 0.10, steady, shift(steady, 0.8)); r.Verdict != Gain || r.Wins != 10 {
		t.Errorf("clear paired win: %s with %d wins", r.Verdict, r.Wins)
	}
	// Nine pairs are not enough to claim one.
	if r := rowFor(t, "lower", 0.10, steady[:9], shift(steady[:9], 0.8)); r.Verdict == Gain {
		t.Error("gain claimed from nine pairs")
	}
	// Won every pair, but by less than the parent's own quartile distance.
	wide := []float64{100, 110, 90, 105, 95, 108, 92, 103, 97, 100}
	if r := rowFor(t, "lower", 0.10, wide, shift(wide, 0.99)); r.Verdict == Gain {
		t.Error("gain claimed inside the parent's inter-quartile distance")
	}
	// A single run a side has no spread: the bound alone decides.
	if r := rowFor(t, "lower", 0.10, []float64{100}, []float64{103}); r.Verdict != OK {
		t.Errorf("single runs 3%% apart: %s, want ok", r.Verdict)
	}
	if r := rowFor(t, "lower", 0.10, []float64{100}, []float64{120}); r.Verdict != Regression {
		t.Errorf("single runs 20%% apart: %s, want regression", r.Verdict)
	}
}

func TestCompareFlagsChangedCounts(t *testing.T) {
	mk := func(islands float64) *File {
		return &File{Results: []WorkloadResult{{Workload: "cta-sat", Seed: 7, Correct: true, Attempted: 10,
			EndToEnd: map[string]Summary{"events_per_s": Exact(100, "1/s")},
			PerLayer: map[string]Summary{"adapt.islands_per_event": Exact(islands, "count")}}}}
	}
	same := Compare(EndToEnd, []*File{mk(3.5)}, []*File{mk(3.5)})
	if same.Regressions() != 0 || len(same.Rows) != 1 {
		t.Errorf("identical files: %d regressions over %d rows", same.Regressions(), len(same.Rows))
	}
	if diff := Compare(EndToEnd, []*File{mk(3.5)}, []*File{mk(3.6)}); diff.Regressions() != 1 {
		t.Errorf("changed exact count not flagged: %+v", diff.CountChanges)
	}
}

// A change that answers faster but wrongly has not gained anything: ten clean
// paired wins read FAILED, not GAIN, once one of its records fails.
func TestCompareFailsAChangeThatFailsMoreEvents(t *testing.T) {
	set := func(rate float64, failedInLast int) []*File {
		var fs []*File
		for i := 0; i < 10; i++ {
			r := WorkloadResult{Workload: "cta-sat", Seed: uint64(i), Correct: true, Attempted: 1000,
				EndToEnd: map[string]Summary{"events_per_s": Exact(rate+float64(i), "1/s")}}
			if i == 9 && failedInLast > 0 {
				r.Failed, r.Correct = failedInLast, false
			}
			fs = append(fs, &File{Results: []WorkloadResult{r}})
		}
		return fs
	}
	if c := Compare(EndToEnd, set(100, 0), set(150, 0)); c.Regressions() != 0 || c.Rows[0].Verdict != Gain {
		t.Fatalf("clean faster change: %d regressions, verdict %s, want a gain", c.Regressions(), c.Rows[0].Verdict)
	}
	c := Compare(EndToEnd, set(100, 0), set(150, 1))
	if c.Regressions() != 1 || len(c.MoreFailed) != 1 || c.Rows[0].Verdict != Failed {
		t.Errorf("faster change with one failed event: %d regressions, %v, verdict %s", c.Regressions(), c.MoreFailed, c.Rows[0].Verdict)
	}
	// Both sides failing equally often is the parent's defect, not the change's.
	if c := Compare(EndToEnd, set(100, 0), set(100, 0)); c.Regressions() != 0 {
		t.Errorf("identical clean sets: %d regressions", c.Regressions())
	}
}

// statsTau and statsMinWindow mirror constants private to the daemon; the
// EWMA inversion behind server.serve_ns_per_event silently misreports if they
// drift apart.
func TestGaugeConstantsMatchTheDaemon(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "internal", "server", "stats.go"))
	if err != nil {
		t.Skipf("daemon source not beside bench/: %v", err)
	}
	if statsTau != 5.0 || !bytes.Contains(src, []byte("const rateTau = 5 * time.Second")) {
		t.Error("internal/server's rateTau is no longer 5 s: update statsTau in daemon.go to match")
	}
	if statsMinWindow <= 250*time.Millisecond || !bytes.Contains(src, []byte("const rateMinWindow = 250 * time.Millisecond")) {
		t.Error("internal/server's rateMinWindow is no longer 250 ms: keep statsMinWindow in daemon.go above it")
	}
}

// TestManifestMatchesTheTables keeps BENCHMARK.json and the code from
// drifting apart: same workloads, same metrics, same units and bounds.
func TestManifestMatchesTheTables(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("no BENCHMARK.json beside bench/")
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	ws := Workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, EndToEnd)
	same("per_layer", m.PerLayer, PerLayer)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}
