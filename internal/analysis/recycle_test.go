package analysis_test

import (
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/analysis/solvetest"
	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/minicc/gen"
)

// recycleFuncs returns the functions the recycling test solves over: the
// irgen random functions (straight-line code around a phi diamond), plus
// mcf lifted and refined (loops, so widening and re-visits recycle
// states). lifted functions still carry their ESP parameter, which the
// stack-height problem needs.
func recycleFuncs(t *testing.T) (random, lifted, refined []*ir.Func) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		random = append(random, irgen.Build(seed, 3, 5).Funcs...)
	}
	p, _ := progs.ByName("mcf")
	p = bench.Scaled(p, 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, refine := range []bool{false, true} {
		pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !refine {
			lifted = pl.Mod.Funcs
			continue
		}
		if err := pl.Refine(); err != nil {
			t.Fatal(err)
		}
		refined = pl.Mod.Funcs
	}
	return random, lifted, refined
}

// Solve's recycled states must give exactly the fixpoint of a Copy that
// always allocates, with no two result states sharing storage, for every
// problem the package defines (vsa checks its own problem the same way).
func TestSolveRecyclingMatchesFreshCopies(t *testing.T) {
	random, lifted, refined := recycleFuncs(t)
	check := func(name string, f *ir.Func, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, f := range append(append([]*ir.Func(nil), random...), refined...) {
		esc := analysis.Escape(f)
		check("bounds", f, solvetest.Check(f, analysis.BoundsProblem(f)))
		check("deadstore", f, solvetest.Check(f, analysis.DeadStoreProblem(esc)))
		check("initcheck", f, solvetest.Check(f, analysis.InitProblem(esc)))
		if len(f.Params) > 0 {
			// irgen's parameters are plain registers; treating the first
			// as the stack pointer still drives the height lattice.
			check("stackheight", f, solvetest.Check(f, analysis.HeightsProblem(f, f.Params[0])))
		}
	}
	for _, f := range lifted {
		if esp := f.ParamByReg(isa.ESP); esp != nil {
			check("stackheight", f, solvetest.Check(f, analysis.HeightsProblem(f, esp)))
		}
	}
}
