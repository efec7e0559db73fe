// Package opt implements the optimizer passes that run over the lifted IR —
// the analogue of the LLVM pass pipeline in the paper's toolchain. It also
// provides the shared SSA utilities (use replacement, dead-code
// elimination) that the refinement passes build on; use lists are
// ir.BuildUses.
package opt

import "wytiwyg/internal/ir"

// ReplaceUses rewrites every use of old inside f to new.
func ReplaceUses(f *ir.Func, old, new *ir.Value) {
	rewrite := func(v *ir.Value) {
		for i, a := range v.Args {
			if a == old {
				v.Args[i] = new
			}
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			rewrite(v)
		}
		for _, v := range b.Insts {
			rewrite(v)
		}
	}
}

// hasSideEffects reports whether a value must be kept even when unused.
func hasSideEffects(v *ir.Value) bool {
	switch v.Op {
	case ir.OpStore, ir.OpCall, ir.OpCallInd, ir.OpCallExt, ir.OpCallExtRaw,
		ir.OpJmp, ir.OpBr, ir.OpSwitch, ir.OpRet, ir.OpTrap:
		return true
	case ir.OpAlloca:
		// Allocas are address anchors for passes in flight; RemoveDeadAllocas
		// sweeps the genuinely dead ones.
		return true
	case ir.OpDiv, ir.OpMod:
		// May trap on zero; keep unless the divisor is a non-zero constant.
		d := v.Args[1]
		return !(d.Op == ir.OpConst && d.Const != 0)
	}
	return false
}

// DCE removes pure instructions whose results are never used. Returns the
// number of removed values.
func DCE(f *ir.Func) int {
	removed := 0
	for {
		uses := ir.BuildUses(f)
		live := func(v *ir.Value) bool {
			return hasSideEffects(v) || len(uses[v]) > 0
		}
		changed := false
		for _, b := range f.Blocks {
			phis := b.Phis[:0]
			for _, v := range b.Phis {
				if live(v) {
					phis = append(phis, v)
				} else {
					changed = true
					removed++
				}
			}
			b.Phis = phis
			insts := b.Insts[:0]
			for _, v := range b.Insts {
				if live(v) {
					insts = append(insts, v)
				} else {
					changed = true
					removed++
				}
			}
			b.Insts = insts
		}
		if !changed {
			return removed
		}
	}
}

// DCEModule runs DCE over every function.
func DCEModule(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += DCE(f)
	}
	return n
}

// RemoveDeadAllocas deletes allocas with no remaining uses (typically after
// mem2reg promoted them). Returns the number removed.
func RemoveDeadAllocas(f *ir.Func) int {
	uses := ir.BuildUses(f)
	removed := 0
	for _, b := range f.Blocks {
		insts := b.Insts[:0]
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca && len(uses[v]) == 0 {
				removed++
				continue
			}
			insts = append(insts, v)
		}
		b.Insts = insts
	}
	return removed
}
