// Command experiments regenerates the paper's tables and figures and prints
// each cell next to its published value. Three tools ride along for looking
// at one image, one design or one pipeline run at a time.
//
// Usage:
//
//	experiments                 # run everything (E1–E14)
//	experiments table1 table3   # run selected experiments
//	experiments -list           # list experiment ids
//	experiments -csv fig10      # emit a figure's data series as CSV
//
//	experiments label -gen shower -rows 43 -cols 43   # label one image
//	experiments report -stage pipelined -conn 8       # one synthesis report
//	experiments pipe -config cta -events 3 -v         # one ADAPT pipeline run
//
// label labels an ASCII-art, PGM or generated image with the paper's 1.5-pass
// CCL (either merge-table update) or the flood-fill golden model and prints
// the label map and islands. report prints the Vitis-style synthesis report
// of one design stage: latency, II, BRAM/FF/LUT, the per-loop breakdown and
// the stream statistics, and -trace writes the scan loop's VCD waveform. pipe
// runs the ADAPT front-end pipeline end to end on generated events and prints
// the downlink records and the data reduction. Each tool takes its own flags;
// run `experiments <tool> -h` for them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/wustl-adapt/hepccl/internal/experiments"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// tools are the subcommands; any other first argument is an experiment id
// or a flag.
var tools = map[string]func(args []string, out io.Writer) error{
	"label":  label,
	"report": report,
	"pipe":   pipe,
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		if tool, ok := tools[args[0]]; ok {
			return tool(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list = fs.Bool("list", false, "list experiment ids and exit")
		csv  = fs.Bool("csv", false, "emit CSV data series (fig10/fig11 only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-11s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ids := fs.Args()
	if *csv {
		if len(ids) != 1 {
			return fmt.Errorf("-csv needs exactly one of: fig10, fig11")
		}
		switch ids[0] {
		case "fig10":
			return experiments.Fig10CSV(out)
		case "fig11":
			return experiments.Fig11CSV(out)
		default:
			return fmt.Errorf("no CSV series for %q", ids[0])
		}
	}
	if len(ids) == 0 {
		return experiments.RunAll(out)
	}
	for i, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := e.Run(out); err != nil {
			return err
		}
	}
	return nil
}

// connFlag registers the tools' shared -conn flag, rejecting anything but 4
// or 8 while the flags parse.
func connFlag(fs *flag.FlagSet) *grid.Connectivity {
	conn := grid.FourWay
	fs.Func("conn", "connectivity `n`: 4 or 8 (default 4)", func(s string) error {
		n, err := strconv.Atoi(s)
		if c := grid.Connectivity(n); err == nil && c.Valid() {
			conn = c
			return nil
		}
		return fmt.Errorf("want 4 or 8")
	})
	return &conn
}

// checkSize rejects an array the grid package would refuse to allocate.
func checkSize(rows, cols int) error {
	if rows < 1 || cols < 1 {
		return fmt.Errorf("-rows and -cols must be at least 1, got %dx%d", rows, cols)
	}
	return nil
}
