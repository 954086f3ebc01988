package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestReportsHotPathAllocation runs the whole suite — analyzers, both
// compiler cross-checks and go vet — on a fixture module whose one package
// allocates in a //hepccl:hotpath function: it must exit 1 with that
// allocation as its only finding.
func TestReportsHotPathAllocation(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run(nil, filepath.Join("testdata", "hotfix"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit status %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "hotfix.go:8:") ||
		!strings.Contains(lines[0], "slice literal allocates") || !strings.HasSuffix(lines[0], "[hotpathalloc]") {
		t.Fatalf("findings:\n%s\nwant the one hotpathalloc finding at hotfix.go:8", stdout.String())
	}
}
