package stream

import (
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	s := New[int]("q", 4)
	for i := 1; i <= 4; i++ {
		if err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ {
		v, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("read %d, want %d", v, i)
		}
	}
	if !s.Empty() {
		t.Fatal("should be empty")
	}
}

// mustWrite writes v, failing the test on overflow.
func mustWrite(t *testing.T, s *Stream[int], v int) {
	t.Helper()
	if err := s.Write(v); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowUnderflow(t *testing.T) {
	s := New[int]("q", 2)
	mustWrite(t, s, 1)
	mustWrite(t, s, 2)
	if err := s.Write(3); err == nil {
		t.Fatal("write to full FIFO must error")
	}
	s.MustRead()
	s.MustRead()
	if _, err := s.Read(); err == nil {
		t.Fatal("read from empty FIFO must error")
	}
}

func TestMustPanics(t *testing.T) {
	s := New[int]("q", 1)
	mustWrite(t, s, 1)
	s.MustRead()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRead on empty FIFO must panic")
			}
		}()
		s.MustRead()
	}()
}

func TestHighWaterMark(t *testing.T) {
	s := New[int]("q", 8)
	mustWrite(t, s, 1)
	mustWrite(t, s, 2)
	mustWrite(t, s, 3)
	s.MustRead()
	mustWrite(t, s, 4)
	if s.MaxOccupancy() != 3 {
		t.Fatalf("MaxOccupancy = %d, want 3", s.MaxOccupancy())
	}
	if s.Writes() != 4 {
		t.Fatalf("writes = %d, want 4", s.Writes())
	}
}

func TestMetadata(t *testing.T) {
	s := New[int]("merged_integrals", 5)
	if s.Name() != "merged_integrals" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("depth 0 must panic")
		}
	}()
	New[int]("q", 0)
}

// Property: any interleaving of writes and reads preserves FIFO order.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		s := New[int]("q", 64)
		next, expect := 0, 0
		for _, isWrite := range ops {
			if isWrite {
				if s.Write(next) != nil {
					continue
				}
				next++
			} else {
				if s.Empty() {
					continue
				}
				if s.MustRead() != expect {
					return false
				}
				expect++
			}
		}
		// Drain remainder.
		for !s.Empty() {
			if s.MustRead() != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ring wrap-around never corrupts data across many cycles.
func TestRingWrapProperty(t *testing.T) {
	f := func(n uint8) bool {
		s := New[int]("q", 3)
		val := 0
		for i := 0; i < int(n); i++ {
			if s.Write(val) != nil || s.MustRead() != val {
				return false
			}
			val++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
