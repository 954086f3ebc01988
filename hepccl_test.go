package hepccl_test

import (
	"testing"

	hepccl "github.com/wustl-adapt/hepccl"
)

// The facade test exercises the README quickstart path end to end through
// the public API only.
func TestQuickstartPath(t *testing.T) {
	g := hepccl.MustParseGrid(`
		##..#
		#...#
		...##
	`)
	res, err := hepccl.Label(g, hepccl.Options{Connectivity: hepccl.FourWay})
	if err != nil {
		t.Fatal(err)
	}
	if res.Islands != 2 {
		t.Fatalf("islands = %d, want 2", res.Islands)
	}
	islands := hepccl.IslandsOf(g, res.Labels)
	if len(islands) != 2 {
		t.Fatalf("extracted = %d, want 2", len(islands))
	}
	big := hepccl.LargestIsland(islands)
	if big == nil || big.Size() != 4 {
		t.Fatalf("largest island = %+v", big)
	}
	cs := hepccl.Centroids(islands)
	if len(cs) != 2 {
		t.Fatal("centroids missing")
	}
	h := hepccl.HillasOf(*big)
	if h.Size != big.Sum {
		t.Fatal("hillas size mismatch")
	}
}

func TestDesignFacade(t *testing.T) {
	g := hepccl.NewGrid(8, 10)
	g.Set(2, 3, 7)
	g.Set(2, 4, 9)
	out, err := hepccl.RunDesign(g, hepccl.DesignConfig{
		Rows: 8, Cols: 10,
		Connectivity: hepccl.FourWay,
		Stage:        hepccl.StagePipelined,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.LatencyCycles != 340 {
		t.Fatalf("latency = %d, want 340 (Table 1)", out.Report.LatencyCycles)
	}
	if out.Islands != 1 {
		t.Fatalf("islands = %d, want 1", out.Islands)
	}
	if hepccl.DesignLatency(hepccl.StageBaseline, hepccl.FourWay, 8, 10) != 998 {
		t.Fatal("baseline latency facade broken")
	}
	if len(hepccl.Stages()) != 4 {
		t.Fatal("stages facade broken")
	}
	if hepccl.KintexXC7K325T.FF != 407600 {
		t.Fatal("device facade broken")
	}
}

func TestModeConstantsExposed(t *testing.T) {
	g := hepccl.MustParseGrid("#..#.\n#.##.\n###..")
	paper, err := hepccl.Label(g, hepccl.Options{Mode: hepccl.ModePaper})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := hepccl.Label(g, hepccl.Options{Mode: hepccl.ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Islands != 2 || fixed.Islands != 1 {
		t.Fatalf("corner case through facade: %d/%d, want 2/1", paper.Islands, fixed.Islands)
	}
}

func TestPipelineFacade(t *testing.T) {
	p, err := hepccl.NewPipeline(hepccl.ADAPTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eps := p.EventsPerSecond(); eps < 280e3 || eps > 320e3 {
		t.Fatalf("ADAPT events/s = %v", eps)
	}
	cta, err := hepccl.NewPipeline(hepccl.CTAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eps := cta.EventsPerSecond(); eps < 15000 {
		t.Fatalf("CTA events/s = %v", eps)
	}
}

func TestMergeTableSizing(t *testing.T) {
	if hepccl.MergeTableSizePaper(43, 43) != 484 {
		t.Fatal("paper sizing wrong")
	}
	if hepccl.MergeTableSize(8, 10, hepccl.FourWay) != 40 {
		t.Fatal("safe sizing wrong")
	}
	if hepccl.MergeTableSize(8, 10, hepccl.EightWay) != 20 {
		t.Fatal("8-way sizing wrong")
	}
}

func TestGridFromFlat(t *testing.T) {
	g, err := hepccl.GridFromFlat(1, 3, []hepccl.Value{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.LitCount() != 2 {
		t.Fatal("flat grid wrong")
	}
	if hepccl.NewRNG(7).Uint64() != hepccl.NewRNG(7).Uint64() {
		t.Fatal("rng facade not deterministic")
	}
}

func TestFutureWorkFacade(t *testing.T) {
	g := hepccl.MustParseGrid("#..#.\n#.##.\n###..")
	out, err := hepccl.RunVariant(g, hepccl.VariantConfig{
		Rows: 3, Cols: 5, Connectivity: hepccl.FourWay, Strategy: hepccl.PassSingle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Islands != 1 {
		t.Fatalf("single-pass variant islands = %d, want 1 (corner-case immune)", out.Islands)
	}
	if hepccl.VariantLatency(hepccl.VariantConfig{
		Rows: 8, Cols: 10, Connectivity: hepccl.FourWay, Strategy: hepccl.PassOneAndHalf,
	}) != 340 {
		t.Fatal("1.5-pass variant latency must match Table 1")
	}
	big := hepccl.Spiral(32, 32)
	res, err := hepccl.LabelTiled(big, hepccl.TiledOptions{TileRows: 8, TileCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Islands != 1 {
		t.Fatalf("tiled spiral islands = %d, want 1", res.Islands)
	}
	if _, err := hepccl.RunVariant(g, hepccl.VariantConfig{
		Rows: 3, Cols: 5, Connectivity: hepccl.FourWay, Strategy: hepccl.PassTwo,
	}); err != nil {
		t.Fatal(err)
	}
}
