package mem

import (
	"testing"
	"testing/quick"
)

func TestKindSemantics(t *testing.T) {
	if Registers.ReadLatency() != 0 || LUTRAM.ReadLatency() != 0 {
		t.Error("register/LUTRAM reads are combinational")
	}
	if BRAMDualPort.ReadLatency() != 1 {
		t.Error("BRAM reads cost one cycle (§5.2)")
	}
	if BRAMDualPort.PortsPerCycle() != 2 {
		t.Error("RAM_2P supports two accesses per cycle")
	}
	if Registers.PortsPerCycle() != 0 {
		t.Error("register files are fully ported (0 = unlimited)")
	}
	for _, k := range []Kind{Registers, LUTRAM, BRAMDualPort} {
		if k.String() == "" {
			t.Error("kind must print")
		}
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must print")
	}
}

func TestArrayReadWrite(t *testing.T) {
	a := NewArray("data", 10, 32, BRAMDualPort)
	a.Write(3, 42)
	if a.Read(3) != 42 {
		t.Fatal("read back failed")
	}
	if a.Reads() != 1 || a.Writes() != 1 {
		t.Fatalf("access counts %d/%d, want 1/1", a.Reads(), a.Writes())
	}
	if a.Bits() != 320 {
		t.Fatalf("Bits = %d, want 320", a.Bits())
	}
	if a.Name() != "data" || a.Kind() != BRAMDualPort || a.Size() != 10 || a.WidthBits() != 32 {
		t.Fatal("metadata wrong")
	}
}

func TestArrayBoundsPanics(t *testing.T) {
	a := NewArray("a", 4, 16, Registers)
	for _, fn := range []func(){
		func() { a.Read(-1) },
		func() { a.Read(4) },
		func() { a.Write(4, 0) },
		func() { NewArray("bad", 0, 16, Registers) },
		func() { NewArray("bad", 4, 0, Registers) },
		func() { NewArray("bad", 4, 65, Registers) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPartitioning(t *testing.T) {
	// §5.3: cyclic factor=16 puts 16 consecutive elements in 16 banks.
	a := NewArray("data", 80, 32, BRAMDualPort)
	if a.Banks() != 1 {
		t.Fatal("unpartitioned array must have 1 bank")
	}
	a.Partition(16)
	if a.Banks() != 16 {
		t.Fatal("partition factor not applied")
	}
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		b := a.BankOf(i)
		if seen[b] {
			t.Fatalf("elements 0..15 collide in bank %d", b)
		}
		seen[b] = true
	}
	if a.BankOf(16) != a.BankOf(0) {
		t.Fatal("cyclic wrap wrong")
	}
	if a.BankSize() != 5 {
		t.Fatalf("BankSize = %d, want 5", a.BankSize())
	}
	if a.BankBits() != 160 {
		t.Fatalf("BankBits = %d, want 160", a.BankBits())
	}
}

func TestPartitionPanics(t *testing.T) {
	a := NewArray("a", 8, 8, Registers)
	for _, f := range []int{0, -1, 9} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(%d) must panic", f)
				}
			}()
			a.Partition(f)
		}()
	}
}

func TestResetAndSnapshot(t *testing.T) {
	a := NewArray("mt", 4, 16, Registers)
	a.Write(0, 7)
	a.Write(2, 9)
	snap := a.Snapshot()
	if snap[0] != 7 || snap[2] != 9 {
		t.Fatal("snapshot wrong")
	}
	a.Reset()
	if a.Read(0) != 0 || a.Read(2) != 0 {
		t.Fatal("reset must zero contents")
	}
	if snap[0] != 7 {
		t.Fatal("snapshot must be independent of Reset")
	}
	if a.Writes() != 2 {
		t.Fatal("Reset must not count as accesses")
	}
}

// Property: after any write sequence, Read returns the last value written to
// each index, and accounting matches the operation count.
func TestArrayConsistencyProperty(t *testing.T) {
	f := func(ops [50]struct {
		Idx uint8
		Val int32
	}) bool {
		a := NewArray("a", 16, 32, LUTRAM)
		shadow := make(map[int]int32)
		for _, op := range ops {
			i := int(op.Idx) % 16
			a.Write(i, op.Val)
			shadow[i] = op.Val
		}
		for i, want := range shadow {
			if a.Read(i) != want {
				return false
			}
		}
		return a.Writes() == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: BankOf assigns every bank ⌈size/banks⌉ or ⌊size/banks⌋ elements.
func TestBankBalanceProperty(t *testing.T) {
	f := func(sz, factor uint8) bool {
		size := int(sz)%100 + 1
		banks := int(factor)%size + 1
		a := NewArray("a", size, 8, BRAMDualPort)
		a.Partition(banks)
		counts := make([]int, banks)
		for i := 0; i < size; i++ {
			counts[a.BankOf(i)]++
		}
		lo, hi := size/banks, (size+banks-1)/banks
		for _, c := range counts {
			if c < lo || c > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
