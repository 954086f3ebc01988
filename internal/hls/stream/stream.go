// Package stream models hls::stream FIFO channels as used by the dataflow
// pipeline in the paper (§5.4): bounded queues connecting design stages, with
// write and high-water-mark counters for the design's stream statistics.
//
// The designs in internal/design execute single-threaded cycle simulations,
// so streams are simple bounded queues rather than goroutine-safe channels;
// a full (or empty) stream is a design error the hardware would express as a
// stall or deadlock, reported here as an error.
package stream

import "fmt"

// Stream is a bounded FIFO of T with traffic counters.
type Stream[T any] struct {
	name   string
	depth  int
	buf    []T
	head   int // index of the oldest element in buf (ring)
	n      int // current occupancy
	maxOcc int
	writes int64
}

// New returns an empty stream. depth is the FIFO capacity in elements.
func New[T any](name string, depth int) *Stream[T] {
	if depth < 1 {
		panic(fmt.Sprintf("stream %q: depth must be >= 1, got %d", name, depth))
	}
	return &Stream[T]{name: name, depth: depth, buf: make([]T, depth)}
}

// Name returns the stream's name.
func (s *Stream[T]) Name() string { return s.name }

// Empty reports whether the FIFO holds no elements.
func (s *Stream[T]) Empty() bool { return s.n == 0 }

// MaxOccupancy returns the high-water mark since creation — what the FIFO
// depth actually needed to be.
func (s *Stream[T]) MaxOccupancy() int { return s.maxOcc }

// Writes returns the total successful Write count.
func (s *Stream[T]) Writes() int64 { return s.writes }

// Write appends v. Writing to a full FIFO is an error: in hardware the
// producer would stall, and in the paper's dataflow designs FIFO depths are
// chosen so this never happens.
func (s *Stream[T]) Write(v T) error {
	if s.n == s.depth {
		return fmt.Errorf("stream %q: write to full FIFO (depth %d)", s.name, s.depth)
	}
	s.buf[(s.head+s.n)%s.depth] = v
	s.n++
	s.writes++
	if s.n > s.maxOcc {
		s.maxOcc = s.n
	}
	return nil
}

// Read removes and returns the oldest element. Reading an empty FIFO is an
// error (the hardware consumer would stall forever on a design bug).
func (s *Stream[T]) Read() (T, error) {
	var zero T
	if s.n == 0 {
		return zero, fmt.Errorf("stream %q: read from empty FIFO", s.name)
	}
	v := s.buf[s.head]
	s.buf[s.head] = zero
	s.head = (s.head + 1) % s.depth
	s.n--
	return v, nil
}

// MustRead is Read that panics on underflow; used by designs whose FIFO
// traffic has been proven balanced (a panic indicates a design bug, exactly
// like a co-sim deadlock).
func (s *Stream[T]) MustRead() T {
	v, err := s.Read()
	if err != nil {
		panic(err)
	}
	return v
}
