package vsa_test

import (
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/analysis/solvetest"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/vsa"
)

// VSA's recycled Solve states must give exactly the fixpoint of a Copy
// that always allocates, with no two result states sharing storage (the
// analysis package checks its own four problems the same way).
func TestSolveRecyclingMatchesFreshCopies(t *testing.T) {
	var funcs []*ir.Func
	for seed := int64(1); seed <= 40; seed++ {
		funcs = append(funcs, irgen.Build(seed, 3, 5).Funcs...)
	}
	// Refined mcf adds loops: widening and re-visits recycle states.
	funcs = append(funcs, corpusPipeline(t, "mcf", true).Mod.Funcs...)
	for _, f := range funcs {
		if err := solvetest.Check(f, vsa.ProblemOf(f, analysis.Escapes(f))); err != nil {
			t.Error(err)
		}
	}
}
