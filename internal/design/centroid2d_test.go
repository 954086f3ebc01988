package design

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

func TestCentroid2DBasic(t *testing.T) {
	g, err := grid.FromRows([][]grid.Value{
		{0, 10, 0},
		{0, 30, 0},
		{5, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccl.Label(g, ccl.Options{Connectivity: grid.FourWay, CompactLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunCentroid2D(g, res.Labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Centroids) != 2 {
		t.Fatalf("centroids = %d, want 2", len(out.Centroids))
	}
	a := out.Centroids[0] // the 10/30 column
	// row centroid = (0*10 + 1*30)/40 = 0.75; col = 1.
	if math.Abs(a.Row()-0.75) > 1e-4 || math.Abs(a.Col()-1) > 1e-4 {
		t.Fatalf("centroid A = (%v, %v), want (0.75, 1)", a.Row(), a.Col())
	}
	if a.Sum != 40 || a.Pixels != 2 {
		t.Fatalf("centroid A stats = %+v", a)
	}
	b := out.Centroids[1]
	if b.Row() != 2 || b.Col() != 0 || b.Sum != 5 || b.Pixels != 1 {
		t.Fatalf("centroid B = %+v", b)
	}
	if out.Report.DynamicCycles > out.Report.LatencyCycles {
		t.Fatal("dynamic exceeds worst case")
	}
	// accumulate 14+(9−1)·1, divide 36+(5−1)·2, overhead 10.
	if out.Report.LatencyCycles != 76 {
		t.Fatalf("latency = %d, want 76", out.Report.LatencyCycles)
	}
}

func TestCentroid2DErrors(t *testing.T) {
	if _, err := RunCentroid2D(grid.New(2, 2), grid.NewLabels(3, 3), 0); err == nil {
		t.Fatal("shape mismatch must error")
	}
	g := grid.New(2, 2)
	g.Set(0, 0, 1)
	l := grid.NewLabels(2, 2)
	l.Set(0, 0, 9)
	if _, err := RunCentroid2D(g, l, 4); err == nil {
		t.Fatal("label above accumulator bound must error")
	}
}

// Property: the hardware fixed-point centroids match the software float
// centroids within Q16.16 rounding on generated shower images.
func TestCentroid2DMatchesSoftware(t *testing.T) {
	cam := detector.LSTCamera()
	rng := detector.NewRNG(99)
	for i := 0; i < 15; i++ {
		g := cam.Shower(cam.TypicalShower(rng), rng)
		res, err := ccl.Label(g, ccl.Options{Connectivity: grid.FourWay, CompactLabels: true})
		if err != nil {
			t.Fatal(err)
		}
		hw, err := RunCentroid2D(g, res.Labels, 0)
		if err != nil {
			t.Fatal(err)
		}
		sw := centroid.All2D(ccl.Islands(g, res.Labels))
		if len(hw.Centroids) != len(sw) {
			t.Fatalf("count mismatch: hw %d vs sw %d", len(hw.Centroids), len(sw))
		}
		for k := range sw {
			if hw.Centroids[k].Label != sw[k].Label {
				t.Fatalf("label order mismatch at %d", k)
			}
			if math.Abs(hw.Centroids[k].Row()-sw[k].Row) > 1.0/65536*2 ||
				math.Abs(hw.Centroids[k].Col()-sw[k].Col) > 1.0/65536*2 {
				t.Fatalf("centroid %d: hw (%v,%v) vs sw (%v,%v)",
					k, hw.Centroids[k].Row(), hw.Centroids[k].Col(), sw[k].Row, sw[k].Col)
			}
			if hw.Centroids[k].Sum != sw[k].Sum || int(hw.Centroids[k].Pixels) != sw[k].Pixels {
				t.Fatalf("centroid %d stats mismatch", k)
			}
		}
	}
}

func TestCentroid2DLatencyModel(t *testing.T) {
	// 43×43 with the label bound from the merge-table sizing: the stage is
	// far cheaper than labeling itself and cannot bottleneck the pipeline.
	out, err := RunCentroid2D(grid.New(43, 43), grid.NewLabels(43, 43), ccl.SizeForPaper(43, 43))
	if err != nil {
		t.Fatal(err)
	}
	lat := out.Report.LatencyCycles
	if lat >= Latency(StagePipelined, grid.FourWay, 43, 43) {
		t.Fatalf("centroid stage (%d) should be cheaper than labeling (%d)",
			lat, Latency(StagePipelined, grid.FourWay, 43, 43))
	}
	u := CentroidResources(1849, 484)
	if u.BRAM18K < 4 || u.FF <= 0 || u.LUT <= 0 {
		t.Fatalf("resources implausible: %+v", u)
	}
}

// Property: every live label gets exactly one centroid, inside its bbox.
func TestCentroid2DCoverageProperty(t *testing.T) {
	f := func(cells [108]byte) bool {
		g := grid.New(9, 12)
		for i, b := range cells {
			if b%2 == 0 {
				g.Flat()[i] = grid.Value(b%9) + 1
			}
		}
		res, err := ccl.Label(g, ccl.Options{Connectivity: grid.EightWay, CompactLabels: true})
		if err != nil {
			return false
		}
		out, err := RunCentroid2D(g, res.Labels, 0)
		if err != nil {
			return false
		}
		if len(out.Centroids) != res.Islands {
			return false
		}
		islands := ccl.Islands(g, res.Labels)
		for k, c := range out.Centroids {
			is := islands[k]
			if c.Label != is.Label {
				return false
			}
			if c.Row() < float64(is.MinRow)-1e-4 || c.Row() > float64(is.MaxRow)+1e-4 ||
				c.Col() < float64(is.MinCol)-1e-4 || c.Col() > float64(is.MaxCol)+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestFxDivide(t *testing.T) {
	if fxDivide(3, 2) != 98304 { // 1.5 in Q16.16
		t.Fatalf("fxDivide(3,2) = %d", fxDivide(3, 2))
	}
	if fxDivide(1, 0) != 0 {
		t.Fatal("divide by zero must return 0")
	}
	if fxDivide(1<<40, 1) != 1<<31-1 {
		t.Fatal("positive saturation")
	}
}
