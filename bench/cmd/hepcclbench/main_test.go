package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/wustl-adapt/hepccl/bench/harness"
)

// lastLine returns the last non-empty line of the command's output.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// TestSmokeAllWorkloads drives the whole harness end to end on tiny inputs:
// it builds hepccld, runs it as a pinned subprocess for each of the five
// workloads, verifies every record against the oracle, and runs the traced
// spine and the kernels. It measures nothing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-trace", "1"}, &out); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, w := range harness.Workloads() {
		if !strings.Contains(text, "== "+w.Name+" ") {
			t.Errorf("no result block for %s", w.Name)
		}
	}
	if strings.Contains(text, "correct=false") {
		t.Errorf("a smoke workload failed verification:\n%s", text)
	}
	for _, m := range append(append([]harness.Metric(nil), harness.EndToEnd...), harness.PerLayer...) {
		if !strings.Contains(text, " "+m.Name+" ") {
			t.Errorf("metric %s was not printed", m.Name)
		}
	}
	for _, want := range []string{"unattributed", "modeled figure: 1.84x", "trace: "} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// TestDriverLine checks the contract's last line in both trace modes: exactly
// the four keys, and exactly the manifest's metrics for the mode.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	for _, tc := range []struct {
		trace string
		defs  []harness.Metric
	}{{"0", harness.EndToEnd}, {"1", harness.PerLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "adapt1d-sat", "--seed", "3", "--seconds", "1", "--trace", tc.trace, "-smoke"}
		if err := run(args, &out); err != nil {
			t.Fatalf("trace %s: %v\n%s", tc.trace, err, out.String())
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lastLine(out.String())), &line); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: last line has keys %v, want correct/attempted/failed/metrics", tc.trace, line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatalf("trace %s: metrics: %v", tc.trace, err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.defs))
		}
		for _, m := range tc.defs {
			got, ok := metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want a value in %s", tc.trace, m.Name, got, m.Unit)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("trace %s: correct=%s failed=%s", tc.trace, line["correct"], line["failed"])
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "nope"}, &out); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
