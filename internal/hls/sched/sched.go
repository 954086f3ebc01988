// Package sched models the loop schedules an HLS tool produces, so designs
// can report latency the way a Vitis synthesis report does (§5): worst-case
// cycle counts derived from loop structure, not from the data that happens to
// flow through a simulation.
//
// Two loop execution styles are modeled:
//
//   - Serialized (no PIPELINE pragma): total latency = trip count × iteration
//     latency. The scheduler runs each iteration to completion before issuing
//     the next, so storage read latency adds directly to every iteration —
//     the Table 1 baseline/bind-storage behaviour.
//   - Pipelined (`#pragma HLS PIPELINE II=1`): total latency = depth +
//     (trip−1) × II. Memory read latency is hidden inside the pipeline depth,
//     which is why storage binding stops hurting once §5.4 pipelines the loop.
//
// A Ledger accumulates charged cycles per named loop, giving designs an
// auditable latency breakdown.
package sched

import (
	"fmt"
	"strings"
)

// Loop describes one scheduled loop.
type Loop struct {
	// Name identifies the loop in reports (e.g. "scan", "resolve").
	Name string
	// Trip is the (worst-case) trip count.
	Trip int64
	// IterLatency is the latency of one iteration when serialized.
	IterLatency int64
	// Pipelined selects the pipelined schedule.
	Pipelined bool
	// II is the initiation interval when pipelined (usually 1).
	II int64
	// Depth is the pipeline depth (cycles from issue to retire) when
	// pipelined.
	Depth int64
}

// Latency returns the loop's total cycle count under its schedule.
// A zero-trip loop costs nothing.
func (l Loop) Latency() int64 {
	if l.Trip <= 0 {
		return 0
	}
	if l.Pipelined {
		ii := l.II
		if ii < 1 {
			ii = 1
		}
		return l.Depth + (l.Trip-1)*ii
	}
	return l.Trip * l.IterLatency
}

// Ledger accumulates cycles charged to named regions in insertion order.
type Ledger struct {
	total  int64
	byName map[string]int64
	order  []string
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byName: make(map[string]int64)}
}

// Charge adds cycles to the named region.
func (ld *Ledger) Charge(name string, cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sched: negative charge %d to %q", cycles, name))
	}
	if _, ok := ld.byName[name]; !ok {
		ld.order = append(ld.order, name)
	}
	ld.byName[name] += cycles
	ld.total += cycles
}

// ChargeLoop charges a loop's scheduled latency under the loop's name.
func (ld *Ledger) ChargeLoop(l Loop) {
	ld.Charge(l.Name, l.Latency())
}

// Total returns the sum of all charges.
func (ld *Ledger) Total() int64 { return ld.total }

// Get returns the cycles charged to name.
func (ld *Ledger) Get(name string) int64 { return ld.byName[name] }

// Breakdown renders "name: cycles" lines in charge order, then the total.
func (ld *Ledger) Breakdown() string {
	var b strings.Builder
	for _, name := range ld.order {
		fmt.Fprintf(&b, "%-12s %8d\n", name, ld.byName[name])
	}
	fmt.Fprintf(&b, "%-12s %8d", "total", ld.total)
	return b.String()
}

// Dataflow models a set of stages connected by streams, as created by
// `#pragma HLS DATAFLOW`: stages execute as concurrent processes, so the
// region's steady-state initiation interval is the slowest stage's interval
// while its end-to-end latency is bounded by the critical path.
type Dataflow struct {
	// Stages in pipeline order.
	Stages []Loop
}

// SequentialLatency is the region's latency without dataflow overlap — the
// sum of stage latencies (how the paper's non-overlapped top level behaves;
// its tables report II = latency for exactly this reason).
func (d Dataflow) SequentialLatency() int64 {
	var total int64
	for _, s := range d.Stages {
		total += s.Latency()
	}
	return total
}

// OverlappedLatency is the latency when stages stream into each other: the
// slowest stage dominates and every other stage contributes only its
// pipeline fill (depth for pipelined stages, one iteration for serialized
// ones) — the bottleneck stage's own fill is already inside its latency.
// This is the §6 "fully pipelined first pass" upside; it never exceeds the
// sequential schedule.
func (d Dataflow) OverlappedLatency() int64 {
	var max int64
	maxIdx := -1
	fills := make([]int64, len(d.Stages))
	for i, s := range d.Stages {
		l := s.Latency()
		if l > max {
			max = l
			maxIdx = i
		}
		if s.Pipelined {
			fills[i] = s.Depth
		} else if s.Trip > 0 {
			fills[i] = s.IterLatency
		}
	}
	total := max
	for i, f := range fills {
		if i != maxIdx {
			total += f
		}
	}
	return total
}

// Interval is the steady-state event interval of the overlapped region —
// the slowest stage's latency (a new event can enter as soon as the
// bottleneck stage frees).
func (d Dataflow) Interval() int64 {
	var max int64
	for _, s := range d.Stages {
		if l := s.Latency(); l > max {
			max = l
		}
	}
	return max
}
