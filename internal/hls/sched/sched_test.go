package sched

import (
	"testing"
	"testing/quick"
)

func TestSerializedLatency(t *testing.T) {
	// Trip × iteration latency — the baseline schedule of §5.1 where the
	// "inner loop initiation interval matched the total loop trip-count".
	l := Loop{Name: "scan", Trip: 80, IterLatency: 8}
	if got := l.Latency(); got != 640 {
		t.Fatalf("Latency = %d, want 640", got)
	}
}

func TestPipelinedLatency(t *testing.T) {
	// depth + (trip-1)×II — the §5.4 schedule with II=1.
	l := Loop{Name: "scan", Trip: 80, Pipelined: true, II: 1, Depth: 25}
	if got := l.Latency(); got != 104 {
		t.Fatalf("Latency = %d, want 104", got)
	}
}

func TestPipelinedIIClamp(t *testing.T) {
	l := Loop{Name: "x", Trip: 10, Pipelined: true, II: 0, Depth: 5}
	if got := l.Latency(); got != 14 {
		t.Fatalf("Latency = %d, want 14 (II clamped to 1)", got)
	}
}

func TestZeroTripLoop(t *testing.T) {
	for _, l := range []Loop{
		{Name: "a", Trip: 0, IterLatency: 9},
		{Name: "b", Trip: 0, Pipelined: true, II: 1, Depth: 12},
	} {
		if l.Latency() != 0 {
			t.Errorf("%s: zero-trip loop latency = %d, want 0", l.Name, l.Latency())
		}
	}
}

func TestLedger(t *testing.T) {
	ld := NewLedger()
	ld.Charge("load", 160)
	ld.Charge("scan", 640)
	ld.Charge("load", 10)
	if ld.Total() != 810 {
		t.Fatalf("Total = %d, want 810", ld.Total())
	}
	if ld.Get("load") != 170 || ld.Get("scan") != 640 {
		t.Fatal("per-region accounting wrong")
	}
	want := "load              170\n" +
		"scan              640\n" +
		"total             810"
	if got := ld.Breakdown(); got != want {
		t.Fatalf("Breakdown =\n%s\nwant regions in charge order, then the total:\n%s", got, want)
	}
}

func TestLedgerChargeLoop(t *testing.T) {
	ld := NewLedger()
	ld.ChargeLoop(Loop{Name: "resolve", Trip: 20, IterLatency: 2})
	if ld.Get("resolve") != 40 {
		t.Fatalf("ChargeLoop charged %d, want 40", ld.Get("resolve"))
	}
}

func TestLedgerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge must panic")
		}
	}()
	NewLedger().Charge("x", -1)
}

// Property: pipelining a loop with II=1 never exceeds the serialized schedule
// when iteration latency ≥ depth/trip — i.e. pipelining helps for any
// realistic trip count.
func TestPipeliningWinsProperty(t *testing.T) {
	f := func(trip uint16, iterLat, depth uint8) bool {
		tr := int64(trip%2000) + 2
		il := int64(iterLat%20) + 2
		d := int64(depth)%il + 1 // depth ≤ iterLat
		ser := Loop{Name: "s", Trip: tr, IterLatency: il}
		pip := Loop{Name: "p", Trip: tr, Pipelined: true, II: 1, Depth: d}
		return pip.Latency() <= ser.Latency()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ledger total always equals the sum over regions.
func TestLedgerSumProperty(t *testing.T) {
	f := func(charges []uint8) bool {
		ld := NewLedger()
		names := []string{"a", "b", "c"}
		var want int64
		for i, c := range charges {
			ld.Charge(names[i%3], int64(c))
			want += int64(c)
		}
		var sum int64
		for _, r := range names {
			sum += ld.Get(r)
		}
		return ld.Total() == want && sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDataflowLatencies(t *testing.T) {
	d := Dataflow{Stages: []Loop{
		{Name: "load", Trip: 100, Pipelined: true, II: 1, Depth: 10},
		{Name: "scan", Trip: 100, Pipelined: true, II: 1, Depth: 20},
		{Name: "resolve", Trip: 25, IterLatency: 2},
		{Name: "out", Trip: 100, Pipelined: true, II: 1, Depth: 10},
	}}
	// Sequential: (109) + (119) + 50 + (109) = 387.
	if got := d.SequentialLatency(); got != 387 {
		t.Fatalf("sequential = %d, want 387", got)
	}
	// Overlapped: max stage (scan, 119) + other stages' fills (10+2+10) = 141
	// — the bottleneck's own fill is inside its latency.
	if got := d.OverlappedLatency(); got != 141 {
		t.Fatalf("overlapped = %d, want 141", got)
	}
	if got := d.Interval(); got != 119 {
		t.Fatalf("interval = %d, want 119", got)
	}
	if d.OverlappedLatency() >= d.SequentialLatency() {
		t.Fatal("overlap must help")
	}
}

func TestDataflowEmpty(t *testing.T) {
	var d Dataflow
	if d.SequentialLatency() != 0 || d.OverlappedLatency() != 0 || d.Interval() != 0 {
		t.Fatal("empty dataflow must be zero")
	}
}

// Property: overlapped dataflow never exceeds the sequential schedule, and
// the steady-state interval never exceeds the overlapped latency.
func TestDataflowOverlapProperty(t *testing.T) {
	f := func(stages [5]struct {
		Trip  uint16
		Depth uint8
		Pipe  bool
	}) bool {
		d := Dataflow{}
		for i, s := range stages {
			l := Loop{Name: string(rune('a' + i)), Trip: int64(s.Trip%500) + 1}
			if s.Pipe {
				l.Pipelined = true
				l.II = 1
				l.Depth = int64(s.Depth%30) + 1
			} else {
				l.IterLatency = int64(s.Depth%6) + 1
			}
			d.Stages = append(d.Stages, l)
		}
		return d.OverlappedLatency() <= d.SequentialLatency() &&
			d.Interval() <= d.OverlappedLatency()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
