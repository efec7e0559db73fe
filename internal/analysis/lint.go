package analysis

import (
	"strings"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
)

// The lint's layout-table checks. The post-refinement verification stage
// (vsa.LintFunc, which adds the stack-access check on the function's VSA
// fixpoint) audits a symbolized module against its recovered layout table
// with these and the package's dataflow checks and collects the findings
// into one Report. The severity contract is the one diag.go documents — an
// Error is a proven violation of a layout invariant and means the
// recompiled program may be broken.

// cpPrefix marks call-plumbing allocas (outgoing argument slots); the
// symbolizer excludes them from the recovered layout table.
const cpPrefix = "cp_"

// CheckFrame proves the recovered layout table and the symbolized IR agree
// about f's frame: every non-call-plumbing alloca must appear in the frame
// with exactly its offset and size, the frame must not promise objects the
// IR does not have, and the frame's objects must not overlap. A mismatch is
// a proven violation — the table is the contract the recompiler emits
// debug info and the evaluation (Figure 7) from, so it must describe the
// code.
func CheckFrame(f *ir.Func, frame *layout.Frame, rep *Report) {
	var vars []layout.Var
	if frame != nil {
		vars = frame.Vars
	}
	matched := make([]bool, len(vars))
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpAlloca || strings.HasPrefix(v.Name, cpPrefix) {
				continue
			}
			if v.Const >= 0 {
				// Incoming stack arguments materialized as objects: the
				// layout table records only locals (negative sp0 offsets).
				continue
			}
			found := false
			for i, lv := range vars {
				if lv.Offset == v.Const && lv.Size == v.AllocSize {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				rep.Addf("frame", Error, f.Name, v,
					"stack object %q [%d,%d) has no matching entry in the recovered layout",
					v.Name, v.Const, v.Const+int32(v.AllocSize))
			}
		}
	}
	for i, lv := range vars {
		if !matched[i] {
			rep.Addf("frame", Error, f.Name, nil,
				"recovered layout lists %s but the IR has no such stack object", lv)
		}
		for _, ov := range vars[i+1:] {
			if lv.Overlaps(ov) {
				rep.Addf("frame", Error, f.Name, nil,
					"recovered layout objects %s and %s overlap", lv, ov)
			}
		}
	}
}

// CheckModule runs only the module-level checks — IR well-formedness and
// emulated-stack removal. The per-function checks are vsa.LintFunc's job;
// the core pipeline separates the two so it can fan the per-function half
// out over a worker pool.
func CheckModule(m *ir.Module, rep *Report) {
	if err := ir.Verify(m); err != nil {
		rep.Add(Diag{Check: "verify", Severity: Error, Func: m.Name, Msg: err.Error()})
	}
	if m.EmuStackSize != 0 {
		rep.Add(Diag{Check: "frame", Severity: Warn, Func: m.Name,
			Msg: "module still carries an emulated stack after symbolization"})
	}
}
