package main

import (
	"bufio"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/experiments"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestList(t *testing.T) {
	out := runOut(t, "-list")
	for _, want := range []string{"table1", "table4", "fig10", "throughput", "cornercase", "cta"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestSelectedExperiments(t *testing.T) {
	out := runOut(t, "table1", "throughput")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "E7") {
		t.Fatalf("selected run wrong:\n%s", out)
	}
	if strings.Contains(out, "Table 4") {
		t.Fatal("unselected experiment ran")
	}
}

// TestRunAllDefault pins E1–E14 byte for byte. Regenerate the golden file
// only for a change meant to move a table or figure:
//
//	go run ./cmd/experiments > cmd/experiments/testdata/all.golden
func TestRunAllDefault(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := runOut(t); got != string(want) {
		t.Fatalf("full run differs from testdata/all.golden:\n%s", got)
	}
}

func TestCSV(t *testing.T) {
	out := runOut(t, "-csv", "fig10")
	if !strings.HasPrefix(out, "size,pixels,latency_4way_paper") {
		t.Fatalf("fig10 csv header wrong: %q", out[:60])
	}
	out = runOut(t, "-csv", "fig11")
	if !strings.Contains(out, "ff_8way_model") {
		t.Fatal("fig11 csv header wrong")
	}
}

func TestErrors(t *testing.T) {
	wantErrors(t,
		[]string{"nope"},
		[]string{"-csv"},
		[]string{"-csv", "table1"},
		[]string{"-csv", "fig10", "fig11"},
	)
}

func wantErrors(t *testing.T, cases ...[]string) {
	t.Helper()
	var sb strings.Builder
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestScalingTables checks that Tables 3 and 4 sweep every size and carry
// the 43x43 and 64x64 4-way latencies.
func TestScalingTables(t *testing.T) {
	out := runOut(t, "table3", "table4")
	for _, want := range []string{"8x10", "16x16", "24x24", "32x32", "43x43", "64x64", "6575", "14396"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestLabelErrors(t *testing.T) {
	wantErrors(t,
		[]string{"label", "-conn", "5"},
		[]string{"label", "-algo", "nope"},
		[]string{"label", "-gen", "nope"},
		[]string{"label", "-in", "/does/not/exist"},
		[]string{"label", "-in", "x", "-gen", "islands"},
		[]string{"label", "-rows", "0", "-cols", "5"},
		[]string{"label", "-gen", "spiral", "-cols", "-1"},
	)
}

func TestLabelGenerators(t *testing.T) {
	for _, gen := range []string{"islands", "shower", "muon-ring", "occupancy", "checkerboard", "spiral", "cornercase"} {
		out := runOut(t, "label", "-gen", gen, "-rows", "12", "-cols", "12", "-conn", "8")
		if !strings.Contains(out, "islands") && !strings.Contains(out, "CCL") {
			t.Errorf("%s: output missing summary:\n%s", gen, out)
		}
	}
}

func TestLabelPaperModeCornerCase(t *testing.T) {
	out := runOut(t, "label", "-gen", "cornercase", "-algo", "ccl-paper", "-show-merge-table")
	if !strings.Contains(out, "2 islands") {
		t.Fatalf("corner case should split under paper mode:\n%s", out)
	}
	if !strings.Contains(out, "merge table") {
		t.Fatal("merge table not printed")
	}
	out = runOut(t, "label", "-gen", "cornercase", "-algo", "ccl-fixed")
	if !strings.Contains(out, "1 islands") {
		t.Fatalf("fixed mode should find one island:\n%s", out)
	}
}

func TestLabelAlgorithms(t *testing.T) {
	for _, algo := range []string{"ccl-fixed", "ccl-paper", "floodfill"} {
		out := runOut(t, "label", "-gen", "spiral", "-rows", "9", "-cols", "9", "-algo", algo)
		if !strings.Contains(out, "1 islands") {
			t.Errorf("%s on spiral: want one island:\n%s", algo, out)
		}
	}
}

func TestLabelFileInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.txt")
	if err := os.WriteFile(path, []byte("#.#\n###\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runOut(t, "label", "-in", path); !strings.Contains(out, "1 islands") {
		t.Fatalf("file input: %s", out)
	}
}

func TestLabelPGMInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.pgm")
	if err := os.WriteFile(path, []byte("P2\n3 2\n9\n5 0 7\n0 0 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runOut(t, "label", "-in", path, "-conn", "4"); !strings.Contains(out, "2 islands") {
		t.Fatalf("pgm input: %s", out)
	}
}

func TestReport(t *testing.T) {
	out := runOut(t, "report", "-stage", "pipelined", "-conn", "4", "-rows", "8", "-cols", "10")
	for _, want := range []string{"Pipelined", "4-way", "8x10", "340", "4229", "4096", "loop breakdown", "scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestReportStages checks each stage's 8-way latency against Table 2.
func TestReportStages(t *testing.T) {
	for stage, want := range map[string]string{
		"baseline": "1398", "bind-storage": "1718", "unrolled": "1578", "pipelined": "485",
	} {
		out := runOut(t, "report", "-stage", stage, "-conn", "8")
		if !strings.Contains(out, fmt.Sprintf("latency %8s cycles", want)) || !strings.Contains(out, "loop breakdown") {
			t.Errorf("%s: want latency %s and a breakdown:\n%s", stage, want, out)
		}
	}
}

// TestReportStreamStats pins a report whose event writes to all four 8-way
// merge-update streams: stdout after the path line, and the VCD, byte for
// byte. Regenerate both only for a change meant to move them:
//
//	go run ./cmd/experiments report -stage pipelined -conn 8 -rows 24 -cols 24 \
//	    -seed 4 -trace cmd/experiments/testdata/report-8way-24x24-seed4.vcd |
//	    tail -n +2 > cmd/experiments/testdata/report-8way-24x24-seed4.txt
func TestReportStreamStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scan.vcd")
	out := runOut(t, "report", "-stage", "pipelined", "-conn", "8", "-rows", "24", "-cols", "24",
		"-seed", "4", "-trace", path)
	_, body, _ := strings.Cut(out, "\n")
	for file, got := range map[string]string{"report-8way-24x24-seed4.txt": body, "report-8way-24x24-seed4.vcd": readFile(t, path)} {
		if want := readFile(t, filepath.Join("testdata", file)); got != want {
			t.Errorf("output differs from testdata/%s:\n%s", file, got)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestReportErrors(t *testing.T) {
	wantErrors(t,
		[]string{"report", "-stage", "nope"},
		[]string{"report", "-conn", "3"},
		[]string{"report", "-rows", "0"},
		[]string{"report", "-cols", "0"},
	)
}

// TestReportTrace writes one well-formed VCD per run. The 2x2 seed-12 event
// overflows the paper's merge-table sizing, so report retries at SizeFor; the
// waveform comes from the successful run only.
func TestReportTrace(t *testing.T) {
	for _, args := range [][]string{
		{"-stage", "pipelined", "-rows", "4", "-cols", "5"},
		{"-conn", "4", "-rows", "2", "-cols", "2", "-seed", "12"},
	} {
		path := filepath.Join(t.TempDir(), "scan.vcd")
		out := runOut(t, append(append([]string{"report"}, args...), "-trace", path)...)
		if !strings.Contains(out, "waveform") {
			t.Fatalf("%v: trace note missing:\n%s", args, out)
		}
		if vcd := readFile(t, path); strings.Count(vcd, "$enddefinitions $end") != 1 {
			t.Fatalf("%v: want exactly one VCD header:\n%s", args, vcd)
		}
	}
}

// TestPipeADAPT and TestPipeCTA pin the cycle-accurate co-simulation's full
// verbose output byte for byte. Regenerate the golden files only for a change
// meant to move it:
//
//	go run ./cmd/experiments pipe -config adapt -events 3 -seed 5 -v > cmd/experiments/testdata/pipe-adapt-3ev-seed5.txt
//	go run ./cmd/experiments pipe -config cta -events 2 -seed 9 -v > cmd/experiments/testdata/pipe-cta-2ev-seed9.txt
func TestPipeADAPT(t *testing.T) {
	out := runOut(t, "pipe", "-config", "adapt", "-events", "3", "-seed", "5", "-v")
	wantGolden(t, out, "testdata/pipe-adapt-3ev-seed5.txt")
	for _, want := range []string{
		"20 ASICs (320 channels)", "1D island detection",
		"297619 events/s", "bottleneck: island",
		"calibrated pedestals", "event 0", "processed 3 events",
		"data reduction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPipeCTA(t *testing.T) {
	out := runOut(t, "pipe", "-config", "cta", "-events", "2", "-seed", "9", "-v")
	wantGolden(t, out, "testdata/pipe-cta-2ev-seed9.txt")
	for _, want := range []string{"2D 43x43 4-way", "Pipelined", "processed 2 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// CTA rate matches the §5.5 claim through the pipeline model.
	if !strings.Contains(out, "15209 events/s") {
		t.Errorf("expected 15209 events/s in:\n%s", out)
	}
}

// wantGolden fails the test unless out equals the golden file at path.
func wantGolden(t *testing.T, out, path string) {
	t.Helper()
	if want := readFile(t, path); out != want {
		t.Errorf("output differs from %s:\n%s", path, out)
	}
}

func TestPipeErrors(t *testing.T) {
	wantErrors(t,
		[]string{"pipe", "-config", "nope"},
		[]string{"pipe", "-events", "0"},
		[]string{"pipe", "-events", "-2"},
	)
}

// TestReadmeCommands checks that every `go run ./<dir>` in README.md's sh
// blocks names a main package of this module, and that every word after
// `go run ./cmd/experiments` is a tool or an experiment id.
func TestReadmeCommands(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	goRun := regexp.MustCompile(`go run (\./[\w/-]+)([^#|>&;]*)`)
	var inSh bool
	var seen int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "```") {
			inSh = line == "```sh"
			continue
		}
		if !inSh {
			continue
		}
		for _, m := range goRun.FindAllStringSubmatch(line, -1) {
			seen++
			dir, args := strings.TrimPrefix(m[1], "./"), strings.Fields(m[2])
			if pkg, err := build.ImportDir(filepath.Join("../..", dir), 0); err != nil || pkg.Name != "main" {
				t.Errorf("README: %q names no main package", strings.TrimSpace(m[0]))
				continue
			}
			if dir != "cmd/experiments" || len(args) == 0 || tools[args[0]] != nil {
				continue
			}
			for _, a := range args {
				if _, ok := experiments.ByID(a); !ok && !strings.HasPrefix(a, "-") {
					t.Errorf("README: %q: %q is neither a tool nor an experiment id", strings.TrimSpace(m[0]), a)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("README: no `go run` commands found in sh blocks")
	}
}
