package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wustl-adapt/hepccl/bench/harness"
)

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// resultFile writes a one-workload result file with the given rate, failed of
// its ten events not verified.
func resultFile(t *testing.T, dir, name string, rate float64, failed int) string {
	t.Helper()
	f := harness.File{Label: "pinned", Results: []harness.WorkloadResult{{
		Workload: "cta-sat", Seed: 1, Correct: failed == 0, Attempted: 10, Failed: failed,
		EndToEnd: map[string]harness.Summary{"events_per_s": harness.Exact(rate, "1/s")},
	}}}
	path := filepath.Join(dir, name)
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchdiffExitStatus(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, manifest, harness.Manifest{EndToEnd: []harness.Metric{
		{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}}})
	runs := filepath.Join(dir, "runs")
	if err := os.Mkdir(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	base := resultFile(t, runs, "base.json", 48000, 0)
	same := resultFile(t, runs, "same.json", 47000, 0)
	slow := resultFile(t, runs, "slow.json", 40000, 0)
	wrong := resultFile(t, dir, "wrong.json", 60000, 1)

	var out bytes.Buffer
	code, err := run([]string{"-manifest", manifest, "-parent", base, "-change", same}, &out)
	if err != nil || code != 0 {
		t.Errorf("2%% slower under a 10%% bound: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = run([]string{"-manifest", manifest, "-parent", base, "-change", slow}, &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("17%% slower under a 10%% bound: exit %d, %v\n%s", code, err, out.String())
	}
	// Faster, but one record in ten did not verify: that is not a result.
	out.Reset()
	code, err = run([]string{"-manifest", manifest, "-parent", base, "-change", wrong}, &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "MORE FAILED") || strings.Contains(out.String(), "GAIN") {
		t.Errorf("faster change that fails verification: exit %d, %v\n%s", code, err, out.String())
	}
	// As one set the three runs spread (48000-40000)/47000: over the bound.
	out.Reset()
	code, err = run([]string{"-manifest", manifest, "-spread", filepath.Join(runs, "*.json")}, &out)
	if err != nil || code != 1 || !strings.Contains(out.String(), "OVER BOUND") {
		t.Errorf("spread over the bound: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = run([]string{"-manifest", manifest, "-spread", base + "," + same}, &out)
	if err != nil || code != 0 {
		t.Errorf("two runs 2%% apart: exit %d, %v\n%s", code, err, out.String())
	}
	if _, err := run([]string{"-manifest", manifest, "-parent", base}, &out); err == nil {
		t.Error("missing -change accepted")
	}
}
