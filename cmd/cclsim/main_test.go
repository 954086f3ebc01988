package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestGenerators(t *testing.T) {
	for _, gen := range []string{"islands", "shower", "muon-ring", "occupancy", "checkerboard", "spiral", "cornercase"} {
		out := runOut(t, "-gen", gen, "-rows", "12", "-cols", "12", "-conn", "8")
		if !strings.Contains(out, "islands") && !strings.Contains(out, "CCL") {
			t.Errorf("%s: output missing summary:\n%s", gen, out)
		}
	}
}

func TestPaperModeCornerCase(t *testing.T) {
	out := runOut(t, "-gen", "cornercase", "-algo", "ccl-paper", "-show-merge-table")
	if !strings.Contains(out, "2 islands") {
		t.Fatalf("corner case should split under paper mode:\n%s", out)
	}
	if !strings.Contains(out, "merge table") {
		t.Fatal("merge table not printed")
	}
	out = runOut(t, "-gen", "cornercase", "-algo", "ccl-fixed")
	if !strings.Contains(out, "1 islands") {
		t.Fatalf("fixed mode should find one island:\n%s", out)
	}
}

func TestBaselineAlgorithms(t *testing.T) {
	for _, algo := range []string{"ccl-fixed", "ccl-paper", "floodfill"} {
		out := runOut(t, "-gen", "spiral", "-rows", "9", "-cols", "9", "-algo", algo)
		if !strings.Contains(out, "1 islands") {
			t.Errorf("%s on spiral: want one island:\n%s", algo, out)
		}
	}
}

func TestFileInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.txt")
	if err := os.WriteFile(path, []byte("#.#\n###\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOut(t, "-in", path)
	if !strings.Contains(out, "1 islands") {
		t.Fatalf("file input: %s", out)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"-conn", "5"},
		{"-algo", "nope"},
		{"-gen", "nope"},
		{"-in", "/does/not/exist"},
		{"-in", "x", "-gen", "islands"},
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestPGMInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.pgm")
	if err := os.WriteFile(path, []byte("P2\n3 2\n9\n5 0 7\n0 0 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOut(t, "-in", path, "-conn", "4")
	if !strings.Contains(out, "2 islands") {
		t.Fatalf("pgm input: %s", out)
	}
}
