package chaos

import (
	"bytes"
	"testing"
)

func TestFrameInjectorFaults(t *testing.T) {
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i)
	}
	fi := NewFrameInjector(FrameConfig{
		Seed: 17, BitFlip: 0.1, Truncate: 0.1, Drop: 0.1, Duplicate: 0.1, Insert: 0.1,
	})
	const frames = 2000
	emitted := 0
	var counts [FaultInsert + 1]int
	for i := 0; i < frames; i++ {
		chunks, fault := fi.Mutate(frame)
		counts[fault]++
		switch fault {
		case FaultNone:
			if len(chunks) != 1 || !bytes.Equal(chunks[0], frame) {
				t.Fatal("untouched frame altered")
			}
		case FaultBitFlip:
			if len(chunks) != 1 || len(chunks[0]) != len(frame) {
				t.Fatalf("bitflip changed frame length")
			}
			diff := 0
			for j := range frame {
				diff += popcount8(chunks[0][j] ^ frame[j])
			}
			if diff != 1 {
				t.Fatalf("bitflip changed %d bits, want 1", diff)
			}
		case FaultTruncate:
			if len(chunks) != 1 || len(chunks[0]) >= len(frame) || len(chunks[0]) < 1 {
				t.Fatalf("truncate produced %d bytes of %d", len(chunks[0]), len(frame))
			}
		case FaultDrop:
			if chunks != nil {
				t.Fatal("dropped frame still emitted bytes")
			}
		case FaultDuplicate:
			if len(chunks) != 2 || !bytes.Equal(chunks[0], frame) || !bytes.Equal(chunks[1], frame) {
				t.Fatal("duplicate must emit the frame twice")
			}
		case FaultInsert:
			if len(chunks) != 2 || !bytes.Equal(chunks[1], frame) || len(chunks[0]) == 0 {
				t.Fatal("insert must prepend garbage and keep the frame")
			}
		}
		for _, c := range chunks {
			emitted += len(c)
		}
	}
	for f, n := range counts {
		if n == 0 {
			t.Fatalf("fault %d never fired in %d frames", f, frames)
		}
	}
	if emitted == frames*len(frame) {
		t.Fatal("emitted byte count unchanged; faults had no effect")
	}
}

// TestFrameInjectorDeterministic: same seed, same faults.
func TestFrameInjectorDeterministic(t *testing.T) {
	frame := bytes.Repeat([]byte{0xAB}, 32)
	mk := func(seed uint64) []FrameFault {
		fi := NewFrameInjector(FrameConfig{Seed: seed, BitFlip: 0.2, Truncate: 0.2})
		out := make([]FrameFault, 100)
		for i := range out {
			_, out[i] = fi.Mutate(frame)
		}
		return out
	}
	a, b := mk(123), mk(123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs for equal seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
