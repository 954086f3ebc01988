// Package analysis assembles the hepccl invariant analyzers. cmd/hepcclvet
// runs this suite (plus go vet's standard set and the compiler-shelled
// escape-analysis and bounds-check cross-checks) over the module; the
// individual analyzer packages carry analysistest fixture suites
// demonstrating each rule.
package analysis

import (
	"github.com/wustl-adapt/hepccl/internal/analysis/acctproto"
	"github.com/wustl-adapt/hepccl/internal/analysis/barrierproto"
	"github.com/wustl-adapt/hepccl/internal/analysis/errwrapcheck"
	"github.com/wustl-adapt/hepccl/internal/analysis/framework"
	"github.com/wustl-adapt/hepccl/internal/analysis/hotpathalloc"
	"github.com/wustl-adapt/hepccl/internal/analysis/marklint"
	"github.com/wustl-adapt/hepccl/internal/analysis/nofloat"
)

// All returns every analyzer in the hepcclvet suite.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		marklint.Analyzer,
		hotpathalloc.Analyzer,
		nofloat.Analyzer,
		errwrapcheck.Analyzer,
		barrierproto.Analyzer,
		acctproto.Analyzer,
	}
}
