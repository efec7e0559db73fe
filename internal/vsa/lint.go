package vsa

import (
	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
)

// Lint orchestration: the post-refinement verification stage. It audits a
// symbolized module against its recovered layout table with every check of
// package analysis plus the stack-access check (Check), which runs on the
// function's VSA fixpoint — the one the VSA stage, type recovery and the
// alias oracle share — so the lint adds no abstract domain of its own.

// LintFunc runs every per-function check against fr's function and
// returns the stack-access check's counters. frame may be nil (function
// absent from the layout table) and facts may be the zero value (no
// pre-symbolization height capture available).
func LintFunc(fr *FuncResult, frame *layout.Frame, facts analysis.HeightFacts, rep *analysis.Report) CheckStats {
	f := fr.Fn()
	analysis.CheckFrame(f, frame, rep)
	analysis.CheckRefCoverage(f, facts, rep)
	return lintDataflow(fr, rep)
}

// lintDataflow runs the layout-independent per-function checks: stack
// accesses, initialization and dead stores. It returns the stack-access
// check's counters.
func lintDataflow(fr *FuncResult, rep *analysis.Report) CheckStats {
	st := Check(fr, rep)
	analysis.CheckInit(fr.fn, fr.esc, rep)
	analysis.CheckDeadStores(fr.fn, fr.esc, rep)
	return st
}

// LintIR runs only the layout-independent checks: IR well-formedness,
// stack accesses, initialization and dead stores. Suitable between
// optimization passes, where stack objects may legitimately have been
// promoted away and the layout table no longer describes the IR.
func LintIR(m *ir.Module, rep *analysis.Report) {
	if err := ir.Verify(m); err != nil {
		rep.Add(analysis.Diag{Check: "verify", Severity: analysis.Error, Func: m.Name, Msg: err.Error()})
	}
	for _, f := range m.Funcs {
		lintDataflow(Analyze(f), rep)
	}
	rep.Sort()
}

// LintModule audits a symbolized module against its recovered layout.
// heights carries the per-function stack-height facts captured before
// symbolization (nil when unavailable). The report is returned sorted.
func LintModule(m *ir.Module, recovered *layout.Program, heights map[*ir.Func]analysis.HeightFacts, rep *analysis.Report) {
	analysis.CheckModule(m, rep)
	for _, f := range m.Funcs {
		var frame *layout.Frame
		if recovered != nil {
			frame = recovered.Frame(f.Name)
		}
		LintFunc(Analyze(f), frame, heights[f], rep)
	}
	rep.Sort()
}
