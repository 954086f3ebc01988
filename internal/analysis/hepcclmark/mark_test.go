package hepcclmark_test

import (
	"path/filepath"
	"slices"
	"testing"

	"github.com/wustl-adapt/hepccl/internal/analysis/hepcclmark"
	"github.com/wustl-adapt/hepccl/internal/analysis/load"
)

// TestAssemblyLeafInLedger: a body-less declaration the hot path calls is in
// the ledger, described as assembly, and is never handed to the analyzers'
// walks, which need a body.
func TestAssemblyLeafInLedger(t *testing.T) {
	prog, err := load.LoadDir(filepath.Join("testdata", "src", "asmleaf"), "asmleaf")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	hot := hepcclmark.ComputeHotSet(prog, hepcclmark.Collect(prog))
	var ledger []string
	for _, hf := range hot.Ledger() {
		ledger = append(ledger, hf.Describe())
	}
	want := []string{"Hot", "kernel (assembly, hot via Hot)", "helper (hot via Hot)"}
	if !slices.Equal(ledger, want) {
		t.Fatalf("ledger = %q, want %q", ledger, want)
	}
	for _, hf := range hot.Sorted() {
		if hf.Decl.Body == nil {
			t.Fatalf("Sorted hands the analyzers body-less %s", hf.Obj.Name())
		}
	}
}
