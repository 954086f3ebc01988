package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdict is what a comparison of one metric on one workload concluded.
type Verdict string

const (
	// OK: the change's median is no worse than the parent's by more than
	// the bound.
	OK Verdict = "ok"
	// Regression: it is worse by more than the bound, and the runs are
	// steady enough to say so.
	Regression Verdict = "REGRESSION"
	// Unresolved: run-to-run spread exceeds the bound, so neither "worse"
	// nor "unchanged" can be claimed.
	Unresolved Verdict = "unresolved"
	// Gain: the paired rule is met in the change's favour.
	Gain Verdict = "GAIN"
	// Failed: the change's runs of this workload returned more wrong or
	// missing records than the parent's, so no timing of them counts.
	Failed Verdict = "FAILED"
)

// Row is one (workload, metric) comparison.
type Row struct {
	Workload, Metric, Unit     string
	Bound                      float64
	ParentMedian, ChangeMedian float64
	// WorseBy is the change's median against the parent's as a share of
	// the parent's, signed so that positive is worse.
	WorseBy float64
	// ParentSpread and ChangeSpread are (q3-q1)/median over each side's
	// runs; 0 for a side with a single run, whose spread is unknown.
	ParentSpread, ChangeSpread float64
	Runs                       [2]int
	Verdict                    Verdict
	// Wins and Pairs report the paired rule when it could be applied.
	Wins, Losses, Pairs int
}

// better reports whether a is strictly better than b for the metric.
func better(m Metric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// CompareMetric applies the no-regression rule, and the paired gain rule
// when both sides have at least minPairs runs in matching order. A side with
// a single run has no run-to-run spread to hold against the bound (the spread
// of the reps inside a run is several times that of the value picked from
// them, so it cannot stand in); such a comparison can say "regression" but
// never "unresolved", which is why claims are made from sets.
func CompareMetric(m Metric, parent, change []float64) Row {
	r := Row{Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
		ParentMedian: Median(parent), ChangeMedian: Median(change),
		Runs: [2]int{len(parent), len(change)}}
	if len(parent) > 1 {
		r.ParentSpread = Spread(parent)
	}
	if len(change) > 1 {
		r.ChangeSpread = Spread(change)
	}
	if r.ParentMedian != 0 {
		r.WorseBy = (r.ChangeMedian - r.ParentMedian) / math.Abs(r.ParentMedian)
		if m.Better == "higher" {
			r.WorseBy = -r.WorseBy
		}
	}
	// Every run of the change better than every run of the parent settles
	// it whatever the spread.
	clear := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(m, c, p) {
				clear = false
			}
		}
	}
	switch {
	case clear:
		r.Verdict = OK
	case r.ParentSpread > m.Bound || r.ChangeSpread > m.Bound:
		r.Verdict = Unresolved
	case r.WorseBy > m.Bound:
		r.Verdict = Regression
	default:
		r.Verdict = OK
	}
	// The paired rule: at least minPairs alternating parent/change pairs,
	// the change wins nine tenths of all pairs run (ties count for
	// neither), and the medians differ by more than the distance between
	// the quartiles of the parent's own runs.
	if len(parent) == len(change) && len(parent) >= minPairs {
		r.Pairs = len(parent)
		for i := range parent {
			switch {
			case better(m, change[i], parent[i]):
				r.Wins++
			case better(m, parent[i], change[i]):
				r.Losses++
			}
		}
		q1, _, q3 := Quartiles(parent)
		if 10*r.Wins >= 9*r.Pairs && math.Abs(r.ChangeMedian-r.ParentMedian) > q3-q1 {
			r.Verdict = Gain
		}
	}
	return r
}

// minPairs is the fewest parent/change pairs a gain may be claimed from.
const minPairs = 10

// ExactCounts are the per-layer numbers that are counts of the inputs or of
// simulated time: for one seed they must repeat exactly, on any commit.
var ExactCounts = []string{
	"adapt.wire_bytes_per_event", "adapt.record_bytes_per_event", "adapt.islands_per_event",
	"adapt.lit_fraction", "adapt.bad_packets", "runccl.runs_per_event",
	"design.latency_cycles", "design.events_per_s_100mhz", "wal.bytes_per_event",
}

// Comparison is the outcome over every workload and end-to-end metric.
type Comparison struct {
	Rows []Row
	// CountChanges lists exact counts that differ between two files of the
	// same workload and seed.
	CountChanges []string
	// MoreFailed lists the workloads on which the change failed verification
	// more often than the parent; all their rows read Failed.
	MoreFailed []string
}

// Regressions counts the rows, changed counts and failing workloads that
// fail the comparison.
func (c *Comparison) Regressions() int {
	n := len(c.CountChanges) + len(c.MoreFailed)
	for _, r := range c.Rows {
		if r.Verdict == Regression {
			n++
		}
	}
	return n
}

// Unresolved counts the rows whose spread hides the answer.
func (c *Comparison) Unresolved() int {
	n := 0
	for _, r := range c.Rows {
		if r.Verdict == Unresolved {
			n++
		}
	}
	return n
}

// byWorkload groups the files' results, keeping file order (pairs are matched
// by position).
func byWorkload(files []*File) map[string][]WorkloadResult {
	out := map[string][]WorkloadResult{}
	for _, f := range files {
		for _, r := range f.Results {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

// failedFraction sums failed over attempted across a side's runs of one
// workload, and reports whether any run was marked incorrect.
func failedFraction(rs []WorkloadResult) (fraction float64, incorrect bool) {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
		incorrect = incorrect || !r.Correct
	}
	if attempted > 0 {
		fraction = float64(failed) / float64(attempted)
	}
	return fraction, incorrect
}

// Compare judges change against parent on every end-to-end metric of every
// workload both sides ran, with the bounds of the manifest. Correctness comes
// first: any increase in the failed fraction, or an incorrect run of the
// change, fails the workload whatever its timings say.
func Compare(metrics []Metric, parent, change []*File) *Comparison {
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for name := range pw {
		if _, ok := cw[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cmp := &Comparison{}
	for _, name := range names {
		pf, _ := failedFraction(pw[name])
		cf, incorrect := failedFraction(cw[name])
		moreFailed := cf > pf || incorrect
		if moreFailed {
			cmp.MoreFailed = append(cmp.MoreFailed, fmt.Sprintf(
				"%s: the change failed %.3g of its events (parent %.3g)", name, cf, pf))
		}
		for _, m := range metrics {
			var pv, cv []float64
			for _, r := range pw[name] {
				if s, ok := r.EndToEnd[m.Name]; ok {
					pv = append(pv, s.Value)
				}
			}
			for _, r := range cw[name] {
				if s, ok := r.EndToEnd[m.Name]; ok {
					cv = append(cv, s.Value)
				}
			}
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			row := CompareMetric(m, pv, cv)
			row.Workload = name
			if moreFailed {
				row.Verdict = Failed
			}
			cmp.Rows = append(cmp.Rows, row)
		}
		for _, p := range pw[name] {
			for _, c := range cw[name] {
				if p.Seed != c.Seed {
					continue
				}
				for _, key := range ExactCounts {
					a, aok := p.PerLayer[key]
					b, bok := c.PerLayer[key]
					if aok && bok && a.Value != b.Value {
						cmp.CountChanges = append(cmp.CountChanges, fmt.Sprintf(
							"%s seed %d: %s changed from %v to %v", name, p.Seed, key, a.Value, b.Value))
					}
				}
			}
		}
	}
	return cmp
}

// Print writes one row per workload and metric, then the totals.
func (c *Comparison) Print(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "parent", "change", "worse", "bound", "spreadP", "spreadC", "verdict")
	for _, r := range c.Rows {
		pairs := ""
		if r.Pairs > 0 {
			pairs = fmt.Sprintf(" (%d/%d pairs won, %d lost)", r.Wins, r.Pairs, r.Losses)
		}
		fmt.Fprintf(w, "%-14s %-24s %12.6g %12.6g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s%s\n",
			r.Workload, r.Metric, r.ParentMedian, r.ChangeMedian, 100*r.WorseBy, 100*r.Bound,
			100*r.ParentSpread, 100*r.ChangeSpread, r.Verdict, pairs)
	}
	for _, s := range c.CountChanges {
		fmt.Fprintf(w, "COUNT CHANGED  %s\n", s)
	}
	for _, s := range c.MoreFailed {
		fmt.Fprintf(w, "MORE FAILED  %s\n", s)
	}
	fmt.Fprintf(w, "%d rows: %d regressions, %d unresolved\n", len(c.Rows), c.Regressions(), c.Unresolved())
	for _, r := range c.Rows {
		if r.Runs[0] < 2 || r.Runs[1] < 2 {
			fmt.Fprintf(w, "note: a side has a single run, so its run-to-run spread is unknown and nothing can read \"unresolved\"; compare sets of runs to judge a change\n")
			break
		}
	}
}

// SpreadReport prints, for one set of runs, each end-to-end metric's spread
// across the runs beside a third of its bound — the steadiness the
// benchmark's acceptance asks of it.
func SpreadReport(w io.Writer, metrics []Metric, files []*File) (over int) {
	fw := byWorkload(files)
	var names []string
	for name := range fw {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-24s %5s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "runs", "median", "q1", "q3", "spread", "bound/3")
	for _, name := range names {
		for _, m := range metrics {
			var vs []float64
			for _, r := range fw[name] {
				if s, ok := r.EndToEnd[m.Name]; ok {
					vs = append(vs, s.Value)
				}
			}
			if len(vs) < 2 {
				continue
			}
			q1, _, q3 := Quartiles(vs)
			sp := Spread(vs)
			mark := ""
			if sp > m.Bound {
				mark = "  OVER BOUND"
				over++
			} else if sp > m.Bound/3 {
				mark = "  over a third"
			}
			fmt.Fprintf(w, "%-14s %-24s %5d %12.6g %12.6g %12.6g %7.2f%% %7.2f%%%s\n",
				name, m.Name, len(vs), Median(vs), q1, q3, 100*sp, 100*m.Bound/3, mark)
		}
	}
	return over
}
