// Command benchdiff compares hepcclbench result files under the bounds
// BENCHMARK.json fixes.
//
//	benchdiff -parent a.json -change b.json
//	    two runs (or two sets: comma-separated lists and globs are accepted)
//	    of every workload both sides ran. Per end-to-end metric it reports
//	    how much worse the change's median is than the parent's, as a share
//	    of the parent's; "REGRESSION" when that exceeds the metric's bound;
//	    "unresolved" when the run-to-run spread of either side exceeds the
//	    bound (unless every run of the change beats every run of the parent;
//	    a side with one run has no spread, so only sets can be unresolved);
//	    and "GAIN" when the paired rule is met — at least ten parent/change
//	    pairs in matching order, the change winning nine tenths of them, the
//	    medians further apart than the parent's inter-quartile distance.
//	    Exact counts (adapt.*, design.*) must be identical for equal seeds,
//	    and a workload on which the change fails verification more often than
//	    the parent reads "FAILED" on every row, never "GAIN".
//	    Exit status 1 on any regression, changed count or failing workload.
//
//	benchdiff -spread 'runs/*.json'
//	    one set of runs: each metric's (q3-q1)/median across the runs, beside
//	    a third of its bound. Exit status 1 when a spread exceeds its bound.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/wustl-adapt/hepccl/bench/harness"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// load expands a comma-separated list of paths and globs into result files.
func load(list string) ([]*harness.File, error) {
	var files []*harness.File
	for _, pat := range strings.Split(list, ",") {
		if pat = strings.TrimSpace(pat); pat == "" {
			continue
		}
		paths, err := filepath.Glob(pat)
		if err != nil {
			return nil, fmt.Errorf("bad pattern %q: %w", pat, err)
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no result file matches %q", pat)
		}
		for _, p := range paths {
			f, err := harness.ReadFile(p)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	return files, nil
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		manifest = fs.String("manifest", "", "BENCHMARK.json (default: the nearest one at or above the working directory)")
		parent   = fs.String("parent", "", "result files of the parent commit (comma-separated, globs allowed)")
		change   = fs.String("change", "", "result files of the change, in the order they were paired with the parent's")
		spread   = fs.String("spread", "", "result files of one set of runs: report each metric's spread across them")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	m, err := harness.LoadManifest(*manifest)
	if err != nil {
		return 2, err
	}
	if *spread != "" {
		files, err := load(*spread)
		if err != nil {
			return 2, err
		}
		if over := harness.SpreadReport(out, m.EndToEnd, files); over > 0 {
			return 1, nil
		}
		return 0, nil
	}
	if *parent == "" || *change == "" {
		return 2, fmt.Errorf("need -parent and -change, or -spread")
	}
	pf, err := load(*parent)
	if err != nil {
		return 2, err
	}
	cf, err := load(*change)
	if err != nil {
		return 2, err
	}
	for _, f := range append(append([]*harness.File(nil), pf...), cf...) {
		if f.Label != "pinned" {
			fmt.Fprintf(out, "warning: a result file is labelled %q; its numbers include the generator's CPU use\n", f.Label)
			break
		}
	}
	cmp := harness.Compare(m.EndToEnd, pf, cf)
	cmp.Print(out)
	if cmp.Regressions() > 0 {
		return 1, nil
	}
	return 0, nil
}
