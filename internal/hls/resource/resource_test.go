package resource

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/grid"
)

func TestDeviceCapacities(t *testing.T) {
	// The paper's % columns imply these capacities: 63,358 FF = 15% and
	// 41,588 LUT = 20% on the XC7K325T.
	d := KintexXC7K325T
	if got := d.PctFF(63358); got != 16 && got != 15 {
		t.Errorf("PctFF(63358) = %d, want ~15", got)
	}
	if got := d.PctLUT(41588); got != 20 {
		t.Errorf("PctLUT(41588) = %d, want 20", got)
	}
	if got := d.PctFF(132369); got != 32 {
		t.Errorf("PctFF(132369) = %d, want 32 (Table 3, 64x64)", got)
	}
	if got := d.PctFF(199694); got != 49 && got != 48 {
		t.Errorf("PctFF(199694) = %d, want ~48 (Table 4, 64x64)", got)
	}
}

func TestPctZeroCapacity(t *testing.T) {
	d := Device{}
	if d.PctFF(100) != 0 || d.PctLUT(100) != 0 || d.PctBRAM(100) != 0 {
		t.Fatal("zero-capacity device must report 0%")
	}
}

func TestBRAM18KPacking(t *testing.T) {
	cases := []struct{ depth, width, want int }{
		{0, 16, 0},    // empty
		{512, 36, 1},  // exactly one block in 512×36 mode
		{513, 36, 2},  // spills
		{1024, 18, 1}, // 1K×18 mode
		{1024, 16, 1}, // 16-bit fits 18-bit mode
		{1025, 16, 2}, // spills
		{2048, 9, 1},  // 2K×9
		{4096, 4, 1},  // 4K×4
		{8192, 2, 1},  // 8K×2
		{16384, 1, 1}, // 16K×1
		{16385, 1, 2}, // spills
		{512, 72, 2},  // wide: two 36-bit columns
		{1024, 72, 4}, // wide and deep
		{100, 32, 1},  // small still costs one block
		{1849, 16, 2}, // 43×43 labels
		{4096, 16, 4}, // 64×64 labels
	}
	for _, tc := range cases {
		if got := BRAM18KFor(tc.depth, tc.width); got != tc.want {
			t.Errorf("BRAM18KFor(%d,%d) = %d, want %d", tc.depth, tc.width, got, tc.want)
		}
	}
}

func TestReportThroughput(t *testing.T) {
	// §5.5: 6668 cycles × 10 ns ≈ 15k events/s at 100 MHz for 43×43 4-way.
	r := Report{
		Rows: 43, Cols: 43, LatencyCycles: 6668, ClockMHz: 100,
		Connectivity: grid.FourWay,
	}
	eps := r.EventsPerSecond()
	if math.Abs(eps-14997) > 1 {
		t.Fatalf("EventsPerSecond = %.1f, want ≈14997", eps)
	}
	if r.LatencySeconds() <= 0 {
		t.Fatal("latency seconds must be positive")
	}
	if r.SizeLabel() != "43x43" {
		t.Fatalf("SizeLabel = %q", r.SizeLabel())
	}
}

func TestReportZeroClock(t *testing.T) {
	r := Report{LatencyCycles: 100}
	if r.LatencySeconds() != 0 || r.EventsPerSecond() != 0 {
		t.Fatal("zero clock must yield zero timing")
	}
}

// Property: packing is monotone in depth and width, and never returns fewer
// blocks than the raw bits require.
func TestBRAMPackingMonotoneProperty(t *testing.T) {
	f := func(d1, d2 uint16, w1, w2 uint8) bool {
		da, db := int(d1%8192)+1, int(d2%8192)+1
		wa, wb := int(w1%72)+1, int(w2%72)+1
		if da > db {
			da, db = db, da
		}
		if wa > wb {
			wa, wb = wb, wa
		}
		if BRAM18KFor(da, wa) > BRAM18KFor(db, wa) {
			return false // deeper must not need fewer
		}
		if BRAM18KFor(da, wa) > BRAM18KFor(da, wb) {
			return false // wider must not need fewer
		}
		// Capacity: blocks × 18Kb must cover depth×width bits.
		blocks := BRAM18KFor(da, wa)
		return blocks*18*1024 >= da*wa || blocks >= (da*wa+18*1024-1)/(18*1024)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
