package server

import "sync/atomic"

// ring is a lock-free single-producer single-consumer queue over a
// power-of-two circular buffer. Head and tail are monotonically increasing
// positions (never wrapped), masked into the buffer on access, and each lives
// on its own cache line so the producer and consumer cores do not false-share.
//
// The SPSC contract is structural, not checked: exactly one goroutine may
// call push and exactly one may call popBatch. In the ingest spine every ring
// has a natural owner pair — a connection's reader feeds its worker — which
// is what makes the single-slot atomics sufficient. Visibility follows from the Go memory model: the
// producer writes the slot before the tail store, and the consumer's tail
// load synchronizes with that store, so the slot read observes the value
// (and symmetrically for head when the producer checks for space).
//
// The physical capacity is the logical depth rounded up to a power of two;
// callers that need an exact bound (the derandomizer depth) enforce it with
// an external admission counter and treat the ring as never-full.
//
//hepccl:spsc
type ring[T any] struct {
	buf  []T      //hepccl:const
	mask uint64   //hepccl:const
	_    [48]byte // keep head off the buf/mask line
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
	_    [56]byte
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// newRing returns a ring holding at least depth elements.
func newRing[T any](depth int) *ring[T] {
	if depth < 1 {
		depth = 1
	}
	r := &ring[T]{}
	r.buf = make([]T, ceilPow2(depth))
	r.mask = uint64(len(r.buf) - 1)
	return r
}

// push appends v, reporting false when the ring is physically full.
// Producer-side only.
//
//hepccl:hotpath
func (r *ring[T]) push(v T) bool {
	t := r.tail.Load()
	if t-r.head.Load() > r.mask {
		return false
	}
	// Masking with len(buf)-1 (== mask, by construction) under the
	// emptiness guard is what lets the compiler prove the store in range —
	// including when push inlines into enqueue.
	buf := r.buf
	if len(buf) == 0 {
		return false
	}
	buf[t&uint64(len(buf)-1)] = v
	r.tail.Store(t + 1)
	return true
}

// popBatch removes up to len(dst) elements in arrival order, returning the
// count. Consumer-side only. One head store publishes the whole batch, so a
// backlog costs one shared-line write instead of one per element.
//
//hepccl:hotpath
func (r *ring[T]) popBatch(dst []T) int {
	var zero T
	h := r.head.Load()
	n := int(r.tail.Load() - h)
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	// Same shape as push: the len-derived mask plus the emptiness guard
	// prove both slot accesses in range, so the drain loop runs check-free.
	buf := r.buf
	if len(buf) == 0 {
		return 0
	}
	mask := uint64(len(buf) - 1)
	for i := 0; i < n; i++ {
		j := (h + uint64(i)) & mask
		dst[i] = buf[j]
		buf[j] = zero
	}
	r.head.Store(h + uint64(n))
	return n
}

// len reports the element count. Racy by nature (either end may move), but
// each end's own view is exact: after the producer sees len()==0 having
// stopped pushing, the consumer has taken everything.
//
//hepccl:hotpath
func (r *ring[T]) len() int {
	return int(r.tail.Load() - r.head.Load())
}
