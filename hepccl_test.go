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
