// Package harness is the body of hepcclbench: workload generation, the
// per-pixel oracle, the pinned hepccld subprocess, the closed- and open-loop
// drives that verify every downlink record, the traced in-process spine, and
// the arithmetic that turns repetitions into metrics of record.
package harness

import (
	"math"
	"sort"
)

// Quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), because that is the function the acceptance driver applies to the
// ten-run sets. It needs at least two values; with fewer all three are the
// single value (or 0 for none).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	m := len(xs)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median is the middle value of xs (mean of the two middle values for an
// even count), 0 for none.
func Median(xs []float64) float64 {
	m := len(xs)
	if m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}

// Spread is the inter-quartile distance of xs as a share of its median —
// the figure every bound in BENCHMARK.json is compared against.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending-sorted sample: the smallest value with at least p of the sample
// at or below it. With 7,500 samples p=0.99 leaves 75 samples beyond it.
func Percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// Pick says which statistic of the repetitions is a metric's value of record.
type Pick int

const (
	// PickHigh is for a rate. Host interference only ever subtracts, so the
	// value of record comes from the fastest reps — the 90th percentile
	// rather than the single maximum: over ten-run sets on the build box the
	// fifth-best of 45 reps repeated to 2-7 %, the very best to 2-14 % (one
	// lucky rep, helped by a receiver that read a backlog in a burst, is an
	// extreme value, and extremes wander).
	PickHigh Pick = iota
	// PickLow is the same for a cost: the 10th percentile of the reps.
	PickLow
	// PickMedian is for latency percentiles, which are already order
	// statistics of a rep; the best rep of a tail would hide the tail.
	PickMedian
)

// Summary is one metric over the repetitions of a run.
type Summary struct {
	Value  float64   `json:"value"` // the metric of record (see Pick)
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"rep_spread"` // (q3-q1)/median across reps
	Reps   []float64 `json:"reps,omitempty"`
}

// Summarize reduces per-rep values to the metric of record plus the
// median, quartiles and spread printed beside it.
func Summarize(reps []float64, unit string, pick Pick) Summary {
	s := Summary{Unit: unit, Reps: reps, Median: Median(reps), Spread: Spread(reps)}
	s.Q1, _, s.Q3 = Quartiles(reps)
	sorted := append([]float64(nil), reps...)
	sort.Float64s(sorted)
	switch pick {
	case PickHigh:
		s.Value = Percentile(sorted, 0.90)
	case PickLow:
		s.Value = Percentile(sorted, 0.10)
	default:
		s.Value = s.Median
	}
	return s
}

// Exact wraps a count that is not a repetition statistic.
func Exact(v float64, unit string) Summary {
	return Summary{Value: v, Unit: unit, Median: v, Q1: v, Q3: v}
}

// EWMAWindow inverts one step of hepccld's /stats rate gauge. The daemon
// publishes only the smoothed gauge g' = g + alpha*(w-g) with
// alpha = 1-exp(-dt/tau); given the gauge before and after a scrape window
// of dt seconds this recovers w, the window's own mean. It is how
// server.serve_ns_per_event is read from outside: the raw ServeNs counter is
// not on /stats.
func EWMAWindow(before, after, dtSeconds, tauSeconds float64) float64 {
	alpha := 1 - math.Exp(-dtSeconds/tauSeconds)
	if alpha <= 0 {
		return after
	}
	return before + (after-before)/alpha
}
