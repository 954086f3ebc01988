// Command hepcclvet is the module's invariant checker: it runs the custom
// analyzer suite of internal/analysis (marklint, hotpathalloc, nofloat,
// errwrapcheck, barrierproto, acctproto), the compiler-shelled
// escape-analysis and bounds-check-elimination cross-checks, and go vet's
// standard analyzer set, and exits non-zero on any finding. CI runs it as a
// required step; locally:
//
//	go run ./cmd/hepcclvet ./...
//	make vet
//
// Flags:
//
//	-vet=false      skip the go vet standard set
//	-escapes=false  skip the `go build -gcflags=-m` escape cross-check
//	-bounds=false   skip the `-d=ssa/check_bce` bounds-check cross-check
//	-funcs          print the hot-path closure (the functions the hot-path
//	                rules apply to) and exit
//
// The analyzers themselves check the module's non-test sources; go vet
// still covers tests. See DESIGN.md §10 and §15 for the invariant
// catalogue.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/wustl-adapt/hepccl/internal/analysis"
	"github.com/wustl-adapt/hepccl/internal/analysis/boundscheck"
	"github.com/wustl-adapt/hepccl/internal/analysis/escapecheck"
	"github.com/wustl-adapt/hepccl/internal/analysis/framework"
	"github.com/wustl-adapt/hepccl/internal/analysis/hepcclmark"
	"github.com/wustl-adapt/hepccl/internal/analysis/load"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], wd, os.Stdout, os.Stderr))
}

// run checks the module that contains dir and returns the exit status: 0 when
// clean, 1 on any finding, 2 when the checks could not run.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hepcclvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runVet := fs.Bool("vet", true, "also run go vet's standard analyzer set")
	runEscapes := fs.Bool("escapes", true, "cross-check hot paths against go build -gcflags=-m escape output")
	runBounds := fs.Bool("bounds", true, "cross-check hot loops against go build -d=ssa/check_bce output")
	listFuncs := fs.Bool("funcs", false, "print the hot-path closure and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: hepcclvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	root, err := moduleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog, err := load.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *listFuncs {
		marks := hepcclmark.Collect(prog)
		hot := hepcclmark.ComputeHotSet(prog, marks)
		for _, hf := range hot.Ledger() {
			pos := prog.Fset.Position(hf.Decl.Pos())
			fmt.Fprintf(stdout, "%s:%d: %s.%s\n", rel(root, pos.Filename), pos.Line, hf.Pkg.Path, hf.Describe())
		}
		return 0
	}

	diags, err := framework.Run(prog, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *runEscapes {
		out, err := escapecheck.Build(root)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		diags = append(diags, escapecheck.Check(prog, root, out)...)
	}
	if *runBounds {
		out, err := boundscheck.Build(root)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		diags = append(diags, boundscheck.Check(prog, root, out)...)
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", rel(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}

	vetFailed := false
	if *runVet {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = root
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}
	if len(diags) > 0 || vetFailed {
		return 1
	}
	return 0
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hepcclvet: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(r) {
		return r
	}
	return path
}
