package detector

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(2)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ≈1", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(4)
	for _, mean := range []float64{0.5, 3, 12, 60} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive mean must give 0")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(7)
		if v < 0 {
			t.Fatal("Exp must be non-negative")
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-7) > 0.35 {
		t.Errorf("Exp(7) sample mean = %v", got)
	}
}

func TestPulseShape(t *testing.T) {
	if PulseShape(-1, 3) != 0 || PulseShape(0, 3) != 0 || PulseShape(1, 0) != 0 {
		t.Fatal("pulse must be zero before onset / for bad tau")
	}
	// Peak at t = tau with amplitude 1.
	if math.Abs(PulseShape(3, 3)-1) > 1e-12 {
		t.Fatalf("peak = %v, want 1", PulseShape(3, 3))
	}
	if PulseShape(1, 3) >= 1 || PulseShape(9, 3) >= 1 {
		t.Fatal("off-peak must be below peak")
	}
}

// digitize returns one channel's DigitizeInto waveform and its integral.
func digitize(cfg DigitizerConfig, pe float64, rng *RNG) ([]int32, int64) {
	samples := make([]int32, cfg.Samples)
	cfg.DigitizeInto(samples, pe, 4, rng)
	var sum int64
	for _, s := range samples {
		sum += int64(s)
	}
	return samples, sum
}

func TestDigitizePedestalOnly(t *testing.T) {
	cfg := DefaultDigitizer()
	cfg.NoiseRMS = 0
	samples, sum := digitize(cfg, 0, NewRNG(7))
	for _, s := range samples {
		if s != cfg.Pedestal {
			t.Fatalf("pedestal-only sample = %d, want %d", s, cfg.Pedestal)
		}
	}
	if sum != int64(cfg.Pedestal)*int64(cfg.Samples) {
		t.Fatal("pedestal integral mismatch")
	}
}

func TestDigitizeGainCalibration(t *testing.T) {
	cfg := DefaultDigitizer()
	cfg.NoiseRMS = 0
	for _, pe := range []float64{1, 5, 20} {
		_, sum := digitize(cfg, pe, nil)
		net := sum - int64(cfg.Pedestal)*int64(cfg.Samples)
		want := pe * cfg.GainADC
		if math.Abs(float64(net)-want) > want*0.05+4 {
			t.Errorf("pe=%v net integral = %d, want ≈%v", pe, net, want)
		}
	}
}

func TestDigitizeSaturation(t *testing.T) {
	cfg := DefaultDigitizer()
	cfg.NoiseRMS = 0
	samples, _ := digitize(cfg, 1e6, nil)
	for _, s := range samples {
		if s > cfg.MaxADC {
			t.Fatalf("sample %d exceeds ADC max %d", s, cfg.MaxADC)
		}
	}
}

func TestShowerProducesIsland(t *testing.T) {
	cam := LSTCamera()
	rng := NewRNG(8)
	found := 0
	for i := 0; i < 20; i++ {
		sh := cam.TypicalShower(rng)
		g := cam.Shower(sh, rng)
		if g.Rows() != 43 || g.Cols() != 43 {
			t.Fatal("LST camera must be 43x43")
		}
		if g.LitCount() > 0 {
			found++
			// The brightest region should be near the configured center.
			var bestR, bestC int
			var best grid.Value
			for r := 0; r < g.Rows(); r++ {
				for c := 0; c < g.Cols(); c++ {
					if v := g.At(r, c); v > best {
						best, bestR, bestC = v, r, c
					}
				}
			}
			dr := float64(bestR) - sh.CenterRow
			dc := float64(bestC) - sh.CenterCol
			if math.Hypot(dr, dc) > 3*(sh.Length+sh.Width) {
				t.Errorf("brightest pixel (%d,%d) far from center (%.1f,%.1f)",
					bestR, bestC, sh.CenterRow, sh.CenterCol)
			}
		}
	}
	if found < 18 {
		t.Fatalf("only %d/20 typical showers survived cleaning", found)
	}
}

func TestShowerCleaning(t *testing.T) {
	cam := LSTCamera()
	cam.NSBMeanPE = 5 // heavy background
	rng := NewRNG(9)
	g := cam.Shower(ShowerConfig{CenterRow: 21, CenterCol: 21, Length: 3, Width: 1.5, TotalPE: 200}, rng)
	// Every surviving pixel is at or above threshold.
	for i := 0; i < g.Pixels(); i++ {
		if v := g.Flat()[i]; v != 0 && v < cam.CleaningThresholdPE {
			t.Fatalf("pixel %d = %d below cleaning threshold", i, v)
		}
	}
}

func TestRandomIslandsCount(t *testing.T) {
	rng := NewRNG(10)
	g := RandomIslands(32, 32, 5, 1.5, rng)
	labels, err := labeling.FloodFill{}.Label(g, grid.FourWay)
	if err != nil {
		t.Fatal(err)
	}
	n := labels.Count()
	if n < 1 || n > 5 {
		t.Fatalf("islands = %d, want 1..5 (blobs may overlap)", n)
	}
}

func TestRandomOccupancyDensity(t *testing.T) {
	rng := NewRNG(11)
	g := RandomOccupancy(64, 64, 0.3, rng)
	occ := g.Occupancy()
	if occ < 0.25 || occ > 0.35 {
		t.Fatalf("occupancy = %v, want ≈0.3", occ)
	}
}

func TestCheckerboard(t *testing.T) {
	g := Checkerboard(6, 6)
	if g.LitCount() != 18 {
		t.Fatalf("lit = %d, want 18", g.LitCount())
	}
	labels, _ := labeling.FloodFill{}.Label(g, grid.FourWay)
	if labels.Count() != 18 {
		t.Fatal("checkerboard must be 18 isolated pixels under 4-way")
	}
	labels8, _ := labeling.FloodFill{}.Label(g, grid.EightWay)
	if labels8.Count() != 1 {
		t.Fatal("checkerboard must be one component under 8-way")
	}
}

// Property: Spiral is always exactly one 4-way component.
func TestSpiralSingleComponentProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		rows := int(a)%40 + 1
		cols := int(b)%40 + 1
		g := Spiral(rows, cols)
		labels, err := labeling.FloodFill{}.Label(g, grid.FourWay)
		if err != nil {
			return false
		}
		return labels.Count() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpiralLooksLikeASpiral(t *testing.T) {
	g := Spiral(7, 7)
	want := grid.MustParse(`
		#######
		......#
		#####.#
		#...#.#
		#.###.#
		#.....#
		#######
	`)
	if !g.Equal(want) {
		t.Fatalf("spiral 7x7:\n%s\nwant:\n%s", g, want)
	}
}

func TestEvent1DGeneration(t *testing.T) {
	tc := DefaultTracker()
	rng := NewRNG(12)
	sawDeposit := false
	for i := 0; i < 20; i++ {
		ev := tc.Event(rng)
		if len(ev.Values) != tc.Channels {
			t.Fatalf("channels = %d, want %d", len(ev.Values), tc.Channels)
		}
		for ch, v := range ev.Values {
			if v != 0 && v <= tc.Threshold {
				t.Fatalf("channel %d = %d under threshold survived", ch, v)
			}
			if v < 0 {
				t.Fatalf("negative photo-electron count at %d", ch)
			}
		}
		if len(ev.Truth) > 0 {
			sawDeposit = true
			// Energy should appear near at least one truth position.
			it := ev.Truth[0]
			var near grid.Value
			for d := -3; d <= 3; d++ {
				ch := int(it.Channel) + d
				if ch >= 0 && ch < tc.Channels {
					near += ev.Values[ch]
				}
			}
			if it.PE > 50 && near == 0 {
				t.Errorf("deposit of %.0f pe at %.1f left no signal", it.PE, it.Channel)
			}
		}
	}
	if !sawDeposit {
		t.Fatal("20 events with mean 2 interactions produced none")
	}
}

func TestEvent1DDeterminism(t *testing.T) {
	tc := DefaultTracker()
	a := tc.Event(NewRNG(99))
	b := tc.Event(NewRNG(99))
	if len(a.Values) != len(b.Values) {
		t.Fatal("length mismatch")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed must reproduce the event")
		}
	}
}

func TestMuonRingShape(t *testing.T) {
	cam := LSTCamera()
	rng := NewRNG(13)
	ring := MuonRing{CenterRow: 21, CenterCol: 21, Radius: 12, WidthPx: 0.8, TotalPE: 1500}
	g := cam.Ring(ring, rng)
	if g.LitCount() < 30 {
		t.Fatalf("ring too sparse: %d lit", g.LitCount())
	}
	// Lit pixels concentrate near the ring radius; the center stays dark.
	var nearRing, nearCenter int
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			if !g.Lit(r, c) {
				continue
			}
			dr, dc := float64(r)-21, float64(c)-21
			d := math.Hypot(dr, dc)
			if math.Abs(d-12) < 3 {
				nearRing++
			}
			if d < 6 {
				nearCenter++
			}
		}
	}
	if nearCenter > nearRing/10 {
		t.Fatalf("ring interior too bright: %d center vs %d ring", nearCenter, nearRing)
	}
}

func TestTypicalMuonRingInBounds(t *testing.T) {
	cam := LSTCamera()
	rng := NewRNG(14)
	for i := 0; i < 50; i++ {
		ring := cam.TypicalMuonRing(rng)
		if ring.Radius <= 0 || ring.Radius > 21 {
			t.Fatalf("radius %v out of bounds", ring.Radius)
		}
		g := cam.Ring(ring, rng)
		if g.Rows() != 43 || g.Cols() != 43 {
			t.Fatal("wrong camera size")
		}
	}
}
