// Package stackref implements the static half of the paper's first
// refinement (§4.1): after saved registers have left the lifted signatures,
// every value that is a constant displacement from the function-entry stack
// pointer (sp0) can be identified by a simple forward dataflow and rewritten
// into the canonical form sp0 + offset. These rewritten values are the
// "direct stack references" that serve as base pointers in the
// object-bounds refinement (§4.2).
package stackref

import (
	"fmt"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/par"
)

// Offsets maps each value that is a constant displacement from sp0 to that
// displacement. The ESP parameter itself maps to 0.
type Offsets map[*ir.Value]int32

// Analyze computes SP0 displacements for one function without modifying it.
// The analysis is optimistic in the SCCP style so that stack-pointer cycles
// through loop phis (expression-stack push/pop inside loops) resolve: values
// start unknown (bottom), evaluate to a displacement, and fall to "not
// sp0-relative" (top) only on genuine disagreement.
func Analyze(f *ir.Func) Offsets {
	esp := f.ParamByReg(isa.ESP)
	if esp == nil {
		return nil
	}
	const (
		bottom = 0 // optimistic unknown
		known  = 1
		top    = 2 // not sp0-relative
	)
	type state struct {
		k uint8
		c int32
	}
	st := map[*ir.Value]state{esp: {k: known, c: 0}}
	get := func(v *ir.Value) state { return st[v] }

	lift := func(s state, delta int32) state {
		if s.k == known {
			return state{k: known, c: s.c + delta}
		}
		return s
	}
	eval := func(v *ir.Value) state {
		switch v.Op {
		case ir.OpParam:
			if v == esp {
				return state{k: known}
			}
			return state{k: top}
		case ir.OpAdd:
			if k, ok := constOf(v.Args[1]); ok {
				return lift(get(v.Args[0]), k)
			}
			if k, ok := constOf(v.Args[0]); ok {
				return lift(get(v.Args[1]), k)
			}
			return state{k: top}
		case ir.OpSub:
			if k, ok := constOf(v.Args[1]); ok {
				return lift(get(v.Args[0]), -k)
			}
			return state{k: top}
		case ir.OpExtract:
			call := v.Args[0]
			var callee *ir.Func
			base := 0
			switch call.Op {
			case ir.OpCall:
				callee = call.Callee
			case ir.OpCallInd:
				if len(call.Targets) == 0 {
					return state{k: top}
				}
				callee = call.Targets[0]
				base = 1
			default:
				return state{k: top}
			}
			if v.Idx >= len(callee.RetRegs) || callee.RetRegs[v.Idx] != isa.ESP {
				return state{k: top}
			}
			espIdx := -1
			for i, p := range callee.Params {
				if p.RegHint == isa.ESP {
					espIdx = i
					break
				}
			}
			if espIdx < 0 {
				return state{k: top}
			}
			// A balanced callee pops exactly the pushed return address.
			return lift(get(call.Args[base+espIdx]), 4)
		case ir.OpPhi:
			out := state{k: bottom}
			for _, a := range v.Args {
				if a == v {
					continue
				}
				as := get(a)
				switch as.k {
				case bottom:
					// optimistic: ignore
				case known:
					if out.k == bottom {
						out = as
					} else if out.c != as.c {
						return state{k: top}
					}
				case top:
					return state{k: top}
				}
			}
			return out
		}
		return state{k: top}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Phis {
				if ns := eval(v); ns != st[v] && st[v].k != top {
					st[v] = ns
					changed = true
				}
			}
			for _, v := range b.Insts {
				if v == esp {
					continue
				}
				if ns := eval(v); ns != st[v] && st[v].k != top {
					st[v] = ns
					changed = true
				}
			}
		}
	}
	off := Offsets{}
	for v, s2 := range st {
		if s2.k == known {
			off[v] = s2.c
		}
	}
	return off
}

func constOf(v *ir.Value) (int32, bool) {
	if v.Op == ir.OpConst {
		return v.Const, true
	}
	return 0, false
}

// ApplyJobs canonicalizes every function over a bounded worker pool: each
// non-parameter value with a known displacement c is rewritten in place to
// `add esp, c` (or replaced by the ESP parameter when c == 0). It returns
// the per-function offset maps of the REWRITTEN module, which the
// symbolization refinement consumes.
//
// The analysis and rewrite touch only the function they run on, so
// functions proceed independently; results are collected in module
// function order. A function that cannot be analyzed (no ESP parameter, or a panic during its rewrite) is reported
// in the per-function error map instead of failing the module — the caller
// decides whether to degrade or abort, and is responsible for verifying the
// module once it has dealt with the failures.
func ApplyJobs(mod *ir.Module, jobs int) (map[*ir.Func]Offsets, map[*ir.Func]error) {
	offs := make([]Offsets, len(mod.Funcs))
	errs := par.ForEachErrs(jobs, len(mod.Funcs), func(i int) error {
		off, err := applyFunc(mod.Funcs[i])
		if err != nil {
			return err
		}
		offs[i] = off
		return nil
	})
	out := make(map[*ir.Func]Offsets, len(mod.Funcs))
	funcErrs := make(map[*ir.Func]error)
	for i, f := range mod.Funcs {
		if errs[i] != nil {
			funcErrs[f] = errs[i]
			continue
		}
		out[f] = offs[i]
	}
	return out, funcErrs
}

// applyFunc canonicalizes one function and returns its post-rewrite offset
// map. It reads and writes only f.
func applyFunc(f *ir.Func) (Offsets, error) {
	off := Analyze(f)
	if off == nil {
		return nil, fmt.Errorf("stackref: %s has no ESP parameter", f.Name)
	}
	esp := f.ParamByReg(isa.ESP)
	for _, b := range f.Blocks {
		// Phis that turned out to be constant displacements move into
		// the block body as adds.
		var keepPhis []*ir.Value
		var newAdds []*ir.Value
		for _, v := range b.Phis {
			c, ok := off[v]
			if !ok {
				keepPhis = append(keepPhis, v)
				continue
			}
			if c == 0 {
				opt.ReplaceUses(f, v, esp)
				delete(off, v)
				continue
			}
			k := f.NewValue(ir.OpConst)
			k.Const = c
			k.Block = b
			v.Op = ir.OpAdd
			v.Args = []*ir.Value{esp, k}
			v.Block = b
			newAdds = append(newAdds, k, v)
		}
		b.Phis = keepPhis
		if len(newAdds) > 0 {
			b.Insts = append(newAdds, b.Insts...)
		}
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			c, ok := off[v]
			if !ok || v.Op == ir.OpParam || v.Op == ir.OpConst {
				continue
			}
			if v.Op == ir.OpAdd && v.Args[0] == esp && v.Args[1].Op == ir.OpConst {
				continue // already canonical
			}
			if c == 0 {
				opt.ReplaceUses(f, v, esp)
				delete(off, v)
				// The value is now dead; leave removal to DCE unless it
				// has side effects (extract of a call keeps the call).
				continue
			}
			k := f.NewValue(ir.OpConst)
			k.Const = c
			k.Block = b
			v.Op = ir.OpAdd
			v.Args = []*ir.Value{esp, k}
			// Insert the constant before its use.
			b.Insts = append(b.Insts[:i], append([]*ir.Value{k}, b.Insts[i:]...)...)
			i++
		}
	}
	opt.DCE(f)
	// Rebuild the offsets over the cleaned function so symbolize sees
	// exactly the surviving direct references.
	return Analyze(f), nil
}
