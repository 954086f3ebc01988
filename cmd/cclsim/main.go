// Command cclsim labels a pixel image with the paper's 1.5-pass CCL (either
// merge-table update) or the flood-fill golden model and prints the label
// map and extracted islands.
//
// Usage:
//
//	cclsim -gen shower -rows 43 -cols 43 -conn 4 -algo ccl-fixed -seed 7
//	cclsim -in image.txt -algo ccl-paper -show-merge-table
//
// Input images are ASCII art ('.'/'0' dark, anything else lit) unless a
// generator is selected.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/wustl-adapt/hepccl/internal/ccl"
	"github.com/wustl-adapt/hepccl/internal/centroid"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/labeling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cclsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cclsim", flag.ContinueOnError)
	var (
		inFile    = fs.String("in", "", "ASCII-art image file (mutually exclusive with -gen)")
		gen       = fs.String("gen", "", "generator: shower|muon-ring|islands|occupancy|checkerboard|spiral|cornercase")
		rows      = fs.Int("rows", 8, "generated image rows")
		cols      = fs.Int("cols", 10, "generated image cols")
		seed      = fs.Uint64("seed", 1, "generator seed")
		count     = fs.Int("count", 4, "island count for -gen islands")
		occupancy = fs.Float64("occupancy", 0.3, "lit fraction for -gen occupancy")
		connFlag  = fs.Int("conn", 4, "connectivity: 4 or 8")
		algo      = fs.String("algo", "ccl-fixed", "algorithm: ccl-fixed|ccl-paper|floodfill")
		showMT    = fs.Bool("show-merge-table", false, "print the resolved merge table (ccl-* algorithms)")
		showIsl   = fs.Bool("islands", true, "print extracted islands with centroids")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn := grid.Connectivity(*connFlag)
	if !conn.Valid() {
		return fmt.Errorf("invalid -conn %d (want 4 or 8)", *connFlag)
	}

	g, err := loadImage(*inFile, *gen, *rows, *cols, *seed, *count, *occupancy)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "input %dx%d, %d lit pixels (occupancy %.1f%%):\n%s\n\n",
		g.Rows(), g.Cols(), g.LitCount(), g.Occupancy()*100, g)

	var labels *grid.Labels
	switch *algo {
	case "ccl-fixed", "ccl-paper":
		mode := ccl.ModeFixed
		if *algo == "ccl-paper" {
			mode = ccl.ModePaper
		}
		res, err := ccl.Label(g, ccl.Options{
			Connectivity:  conn,
			Mode:          mode,
			CompactLabels: true,
			MergeTableCap: ccl.SizeFor(g.Rows(), g.Cols(), conn),
		})
		if err != nil {
			return err
		}
		labels = res.Labels
		fmt.Fprintf(out, "1.5-pass CCL (%s, %s): %d provisional groups -> %d islands\n",
			conn, mode, res.Groups, res.Islands)
		if *showMT {
			fmt.Fprintf(out, "merge table (resolved):\n%s\n", res.MergeTable)
		}
	case "floodfill":
		labels, err = labeling.FloodFill{}.Label(g, conn)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "floodfill (%s): %d islands\n", conn, labels.Count())
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	fmt.Fprintf(out, "\nlabels:\n%s\n", labels)

	if *showIsl {
		islands := ccl.Islands(g, labels)
		fmt.Fprintf(out, "\n%-6s %6s %8s %8s %12s %10s\n", "label", "pixels", "sum", "bbox", "centroid", "hillas L/W")
		for _, is := range islands {
			c := centroid.Compute2D(is)
			h := centroid.HillasParameters(is)
			fmt.Fprintf(out, "%-6d %6d %8d %3dx%-4d (%5.2f,%5.2f) %5.2f/%5.2f\n",
				is.Label, is.Size(), is.Sum, is.Height(), is.Width(), c.Row, c.Col, h.Length, h.Width)
		}
	}
	return nil
}

func loadImage(inFile, gen string, rows, cols int, seed uint64, count int, occ float64) (*grid.Grid, error) {
	if inFile != "" && gen != "" {
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	}
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(inFile, ".pgm") {
			return grid.ReadPGM(f)
		}
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		return grid.Parse(string(data))
	}
	rng := detector.NewRNG(seed)
	switch gen {
	case "", "islands":
		return detector.RandomIslands(rows, cols, count, 1.5, rng), nil
	case "shower":
		cam := detector.CameraConfig{Rows: rows, Cols: cols, NSBMeanPE: 0.12, CleaningThresholdPE: 4}
		return cam.Shower(cam.TypicalShower(rng), rng), nil
	case "muon-ring":
		cam := detector.CameraConfig{Rows: rows, Cols: cols, NSBMeanPE: 0.12, CleaningThresholdPE: 4}
		return cam.Ring(cam.TypicalMuonRing(rng), rng), nil
	case "occupancy":
		return detector.RandomOccupancy(rows, cols, occ, rng), nil
	case "checkerboard":
		return detector.Checkerboard(rows, cols), nil
	case "spiral":
		return detector.Spiral(rows, cols), nil
	case "cornercase":
		return grid.Parse("#..#.\n#.##.\n###..")
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}
