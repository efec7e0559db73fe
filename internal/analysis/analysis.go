// Package analysis is the static dataflow-analysis layer: a reusable
// lattice-based fixpoint engine over the IR's CFG plus a suite of concrete
// analyses that audit the pipeline's own output. WYTIWYG's refinements are
// dynamic — layouts recovered from traces are only as good as the traces
// (paper §5) — so an unsound symbolization can silently miscompile until a
// bad input hits it at run time. The analyses here act as the static gate
// the paper's soundness discussion calls for: they prove (or flag) the
// recovered stack layouts before code generation instead of discovering
// problems as crashes in the interpreter or the recompiled binary.
//
// The layer has four clients wired into the pipeline:
//
//   - stack-height analysis (stackheight.go) re-derives every function's
//     sp0-relative reference offsets by abstract interpretation and rejects
//     frames whose recovered extent disagrees with them;
//   - the bounds checker (bounds.go) runs an interval analysis over the
//     symbolized IR and proves every stack load/store lands inside its
//     recovered object, or reports where it cannot;
//   - definite-initialization (initcheck.go) flags loads from stack slots
//     that no path has stored to;
//   - escape and dead-store analysis (escape.go, deadstore.go) compute the
//     facts that make the optimizer's promotion and store-elimination
//     decisions provably safe rather than heuristic.
//
// Diagnostics carry stable func:block:idx locations (ir.Value.Location) and
// render as text or JSON (diag.go); Lint (lint.go) bundles the checks into
// the pipeline's post-refinement verification stage and the `wytiwyg lint`
// subcommand.
package analysis

import "wytiwyg/internal/ir"

// constOf unwraps a constant operand.
func constOf(v *ir.Value) (int32, bool) {
	if v.Op == ir.OpConst {
		return v.Const, true
	}
	return 0, false
}
