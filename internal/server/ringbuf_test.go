package server

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/leakcheck"
)

// popOne takes one element off r through popBatch, the consumer's only read.
func popOne[T any](r *ring[T]) (T, bool) {
	var dst [1]T
	n := r.popBatch(dst[:])
	return dst[0], n == 1
}

func TestRingCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 64: 64, 65: 128, 1000: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRingEmptyAndFullBoundaries(t *testing.T) {
	r := newRing[int](4)
	if _, ok := popOne(r); ok {
		t.Fatal("pop on empty ring reported a value")
	}
	if r.len() != 0 {
		t.Fatalf("len = %d on empty ring", r.len())
	}
	for i := 0; i < 4; i++ {
		if !r.push(i) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.push(99) {
		t.Fatal("push accepted beyond capacity")
	}
	if r.len() != 4 {
		t.Fatalf("len = %d, want 4", r.len())
	}
	// One pop frees exactly one slot.
	if v, ok := popOne(r); !ok || v != 0 {
		t.Fatalf("pop = %d,%v, want 0,true", v, ok)
	}
	if !r.push(4) {
		t.Fatal("push rejected after a pop freed a slot")
	}
	if r.push(99) {
		t.Fatal("push accepted with the freed slot already reused")
	}
	for want := 1; want <= 4; want++ {
		v, ok := popOne(r)
		if !ok || v != want {
			t.Fatalf("pop = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := popOne(r); ok {
		t.Fatal("pop on drained ring reported a value")
	}
}

// TestRingDepthOne covers QueueDepth=1 (TestServerDropPolicy runs the server
// this way): a single-slot ring must alternate push/pop cleanly.
func TestRingDepthOne(t *testing.T) {
	r := newRing[string](1)
	for i := 0; i < 3; i++ {
		if !r.push("x") {
			t.Fatal("push rejected on empty depth-1 ring")
		}
		if r.push("y") {
			t.Fatal("second push accepted on depth-1 ring")
		}
		if v, ok := popOne(r); !ok || v != "x" {
			t.Fatalf("pop = %q,%v", v, ok)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing[int](8)
	next := 0 // next value to push
	want := 0 // next value expected from pop
	// Offset phases force head/tail through several buffer wraps while the
	// ring stays partially full.
	for round := 0; round < 64; round++ {
		for i := 0; i < 5; i++ {
			if !r.push(next) {
				t.Fatalf("round %d: push %d rejected with len %d", round, next, r.len())
			}
			next++
		}
		for i := 0; i < 3; i++ {
			v, ok := popOne(r)
			if !ok || v != want {
				t.Fatalf("round %d: pop = %d,%v, want %d,true", round, v, ok, want)
			}
			want++
		}
		if r.len() != next-want {
			t.Fatalf("round %d: len = %d, want %d", round, r.len(), next-want)
		}
		// Keep the ring from overflowing: drain the surplus every 2 rounds.
		if (round+1)%2 == 0 {
			for want < next {
				v, ok := popOne(r)
				if !ok || v != want {
					t.Fatalf("drain: pop = %d,%v, want %d,true", v, ok, want)
				}
				want++
			}
		}
	}
}

func TestRingPopBatch(t *testing.T) {
	r := newRing[int](8)
	dst := make([]int, 8)
	if n := r.popBatch(dst); n != 0 {
		t.Fatalf("popBatch on empty = %d", n)
	}
	for i := 0; i < 6; i++ {
		r.push(i)
	}
	// A short dst bounds the batch.
	if n := r.popBatch(dst[:4]); n != 4 {
		t.Fatalf("popBatch = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if dst[i] != i {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	// The remainder wraps the buffer edge.
	for i := 6; i < 10; i++ {
		r.push(i)
	}
	if n := r.popBatch(dst); n != 6 {
		t.Fatalf("popBatch = %d, want 6", n)
	}
	for i := 0; i < 6; i++ {
		if dst[i] != 4+i {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 4+i)
		}
	}
}

// TestRingPopClearsSlot checks that popped pointer slots are released for GC
// — a ring that pins old elements would defeat the event pool.
func TestRingPopClearsSlot(t *testing.T) {
	r := newRing[*int](4)
	v := new(int)
	r.push(v)
	popOne(r)
	if r.buf[0] != nil {
		t.Fatal("a one-element pop left the slot pointing at the element")
	}
	r.push(new(int))
	r.push(new(int))
	if r.popBatch(make([]*int, 2)) != 2 {
		t.Fatal("popBatch short")
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("popBatch left slot %d populated", i)
		}
	}
}

// TestRingConcurrentSPSC hammers one producer against one consumer; under
// -race this doubles as the memory-model proof that slot contents published
// by the tail store are visible to the consumer.
func TestRingConcurrentSPSC(t *testing.T) {
	const total = 200000
	r := newRing[int](64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 0; v < total; {
			if r.push(v) {
				v++
			} else {
				runtime.Gosched()
			}
		}
	}()
	dst := make([]int, 32)
	want := 0
	for want < total {
		n := r.popBatch(dst)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("out of order: got %d, want %d", dst[i], want)
			}
			want++
		}
	}
	<-done
	if _, ok := popOne(r); ok {
		t.Fatal("ring not empty after consuming every pushed value")
	}
}

// TestRingDrainAfterClose models the shutdown protocol the spine uses: the
// producer pushes a tail of values, raises a done flag (the stand-in for
// ingressDone), and the consumer must still
// recover every value pushed before the flag — lossless drain after close.
func TestRingDrainAfterClose(t *testing.T) {
	leakcheck.Check(t)
	const total = 50000
	r := newRing[int](128)
	var closed atomic.Bool
	go func() {
		for v := 0; v < total; {
			if r.push(v) {
				v++
			} else {
				runtime.Gosched()
			}
		}
		closed.Store(true) // push happens-before close, as in the spine
	}()
	dst := make([]int, 16)
	want := 0
	for {
		n := r.popBatch(dst)
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("got %d, want %d", dst[i], want)
			}
			want++
		}
		if n == 0 {
			if closed.Load() && r.len() == 0 {
				break
			}
			runtime.Gosched()
		}
	}
	if want != total {
		t.Fatalf("drained %d values, want %d", want, total)
	}
}

// TestRingPositionOverflowUint64 drives the monotonic head/tail positions
// across the uint64 overflow boundary. Positions are never wrapped into the
// buffer; correctness across ^uint64(0) rests on 2^64 being a multiple of
// the power-of-two buffer size, which keeps pos&mask continuous through the
// overflow — this test pins that invariant.
func TestRingPositionOverflowUint64(t *testing.T) {
	r := newRing[int](8)
	start := ^uint64(0) - 21 // overflow lands mid-test
	r.head.Store(start)
	r.tail.Store(start)
	next, want := 0, 0
	for round := 0; round < 16; round++ {
		for i := 0; i < 5; i++ {
			if !r.push(next) {
				t.Fatalf("round %d: push %d rejected with len %d", round, next, r.len())
			}
			next++
		}
		if r.len() != 5 {
			t.Fatalf("round %d: len = %d, want 5", round, r.len())
		}
		for i := 0; i < 5; i++ {
			v, ok := popOne(r)
			if !ok || v != want {
				t.Fatalf("round %d: pop = %d,%v, want %d,true", round, v, ok, want)
			}
			want++
		}
	}
	if tail := r.tail.Load(); tail >= start {
		t.Fatalf("tail = %d never crossed the uint64 boundary (start %d)", tail, start)
	}
}

// TestRingFullSpanningOverflow parks a full ring exactly across ^uint64(0):
// the occupancy check (tail-head > mask) and the batched drain must both be
// exact when tail has overflowed and head has not.
func TestRingFullSpanningOverflow(t *testing.T) {
	r := newRing[int](8)
	start := ^uint64(0) - 3 // 4 slots before overflow, 4 after
	r.head.Store(start)
	r.tail.Store(start)
	for i := 0; i < 8; i++ {
		if !r.push(i) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.push(99) {
		t.Fatal("push accepted on a full ring spanning the overflow")
	}
	if r.len() != 8 {
		t.Fatalf("len = %d, want 8", r.len())
	}
	if r.tail.Load() >= r.head.Load() {
		t.Fatal("test did not span the boundary: tail should have overflowed past head")
	}
	dst := make([]int, 8)
	if n := r.popBatch(dst); n != 8 {
		t.Fatalf("popBatch = %d, want 8", n)
	}
	for i := 0; i < 8; i++ {
		if dst[i] != i {
			t.Fatalf("dst[%d] = %d across the boundary", i, dst[i])
		}
	}
	if _, ok := popOne(r); ok {
		t.Fatal("ring not empty after draining across the boundary")
	}
}

// TestRingConcurrentSPSCOverflow repeats the producer/consumer hammer with
// the positions seeded just below ^uint64(0), so the -race run also covers
// the overflow window under real concurrency.
func TestRingConcurrentSPSCOverflow(t *testing.T) {
	const total = 200000
	r := newRing[int](64)
	start := ^uint64(0) - total/2 // overflow mid-run
	r.head.Store(start)
	r.tail.Store(start)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 0; v < total; {
			if r.push(v) {
				v++
			} else {
				runtime.Gosched()
			}
		}
	}()
	dst := make([]int, 32)
	want := 0
	for want < total {
		n := r.popBatch(dst)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("out of order across overflow: got %d, want %d", dst[i], want)
			}
			want++
		}
	}
	<-done
	if head := r.head.Load(); head >= start {
		t.Fatalf("head = %d never crossed the uint64 boundary", head)
	}
}
