// Package opt implements the optimizer passes that run over the lifted IR —
// the analogue of the LLVM pass pipeline in the paper's toolchain. It also
// provides the shared SSA utilities (use replacement, dead-code
// elimination) that the refinement passes build on; use lists are
// ir.BuildUses, a dense index by value ID.
package opt

import "wytiwyg/internal/ir"

// ReplaceUses rewrites every use of old inside f to new.
func ReplaceUses(f *ir.Func, old, new *ir.Value) {
	forEachValue(f, func(v *ir.Value) {
		for i, a := range v.Args {
			if a == old {
				v.Args[i] = new
			}
		}
	})
}

// forEachValue calls fn on every phi and instruction of f, in block order.
func forEachValue(f *ir.Func, fn func(*ir.Value)) {
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			fn(v)
		}
		for _, v := range b.Insts {
			fn(v)
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

// DCE removes pure instructions whose results are never used, and those
// whose only users it removes. Returns the number of removed values.
//
// It is one worklist pass over use counts (by Value.ID): a pure value
// whose count reaches zero dies and releases one use of each operand. That
// reaches the fixpoint of repeatedly deleting every unused pure value, so
// pure values that only feed each other in a cycle survive.
func DCE(f *ir.Func) int {
	type state struct {
		uses         int32
		member, dead bool
	}
	st := make([]state, f.NumValueIDs())
	members := 0
	forEachValue(f, func(v *ir.Value) {
		st[v.ID].member = true
		members++
		for _, a := range v.Args {
			if a != nil {
				st[a.ID].uses++
			}
		}
	})
	var work []*ir.Value
	kill := func(v *ir.Value) {
		if s := &st[v.ID]; s.member && !s.dead && s.uses == 0 && !hasSideEffects(v) {
			s.dead = true
			if work == nil {
				work = make([]*ir.Value, 0, members)
			}
			work = append(work, v)
		}
	}
	forEachValue(f, kill)
	if work == nil {
		return 0
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range v.Args {
			if a != nil {
				st[a.ID].uses--
				kill(a)
			}
		}
	}
	removed := 0
	sweep := func(list []*ir.Value) []*ir.Value {
		out := list[:0]
		for _, v := range list {
			if st[v.ID].dead {
				removed++
			} else {
				out = append(out, v)
			}
		}
		return out
	}
	for _, b := range f.Blocks {
		b.Phis = sweep(b.Phis)
		b.Insts = sweep(b.Insts)
	}
	return removed
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
	if !hasAlloca(f) {
		return 0
	}
	uses := make([]int32, f.NumValueIDs())
	forEachValue(f, func(v *ir.Value) {
		for _, a := range v.Args {
			if a != nil {
				uses[a.ID]++
			}
		}
	})
	removed := 0
	for _, b := range f.Blocks {
		insts := b.Insts[:0]
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca && uses[v.ID] == 0 {
				removed++
				continue
			}
			insts = append(insts, v)
		}
		b.Insts = insts
	}
	return removed
}

// hasAlloca reports whether f holds an alloca.
func hasAlloca(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca {
				return true
			}
		}
	}
	return false
}
