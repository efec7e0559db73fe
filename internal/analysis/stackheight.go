package analysis

import (
	"fmt"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/layout"
)

// Stack-height analysis: an engine-driven abstract interpretation of esp
// deltas that re-derives, independently of internal/stackref's SCCP solver,
// which values are constant displacements from the entry stack pointer. It
// runs on the pre-symbolization IR (the ESP parameter still exists there)
// and its facts are consumed twice: immediately, to cross-check the
// offsets the pipeline canonicalized (CheckHeights), and after
// symbolization, to check every remembered stack reference against the
// extent of the recovered stack objects (CheckRefCoverage). A disagreement
// on either side is a proven pipeline bug, not a property of the input
// program, and is reported as an Error.

// Flat height lattice: unknown (optimistic bottom) -> known displacement ->
// not sp0-relative (top).
const (
	hBottom uint8 = iota
	hKnown
	hTop
)

type height struct {
	k uint8
	c int32
}

func joinHeight(a, b height) height {
	switch {
	case a.k == hBottom:
		return b
	case b.k == hBottom:
		return a
	case a.k == hKnown && b.k == hKnown && a.c == b.c:
		return a
	}
	return height{k: hTop}
}

// heightEnv is the engine state; a missing entry reads as hBottom, but
// only a present one counts as evaluated for the join's change report.
type heightEnv = Env[height]

func joinHeights(dst, src heightEnv) (heightEnv, bool) {
	return dst, dst.JoinFrom(src, func(dv, sv height) (height, bool) {
		nv := joinHeight(dv, sv)
		return nv, nv != dv
	})
}

func evalHeight(v, esp *ir.Value, env heightEnv) height {
	get := func(a *ir.Value) height {
		h, _ := env.Get(a)
		return h
	}
	lift := func(h height, delta int32) height {
		if h.k == hKnown {
			return height{k: hKnown, c: h.c + delta}
		}
		if h.k == hBottom {
			return h
		}
		return height{k: hTop}
	}
	switch v.Op {
	case ir.OpParam:
		if v == esp {
			return height{k: hKnown, c: 0}
		}
		return height{k: hTop}
	case ir.OpSP0:
		return height{k: hKnown, c: 0}
	case ir.OpAdd:
		if k, ok := constOf(v.Args[1]); ok {
			return lift(get(v.Args[0]), k)
		}
		if k, ok := constOf(v.Args[0]); ok {
			return lift(get(v.Args[1]), k)
		}
		return height{k: hTop}
	case ir.OpSub:
		if k, ok := constOf(v.Args[1]); ok {
			return lift(get(v.Args[0]), -k)
		}
		return height{k: hTop}
	case ir.OpExtract:
		call := v.Args[0]
		var callee *ir.Func
		base := 0
		switch call.Op {
		case ir.OpCall:
			callee = call.Callee
		case ir.OpCallInd:
			if len(call.Targets) == 0 {
				return height{k: hTop}
			}
			callee = call.Targets[0]
			base = 1
		default:
			return height{k: hTop}
		}
		if v.Idx >= len(callee.RetRegs) || callee.RetRegs[v.Idx] != isa.ESP {
			return height{k: hTop}
		}
		espIdx := -1
		for i, p := range callee.Params {
			if p.RegHint == isa.ESP {
				espIdx = i
				break
			}
		}
		if espIdx < 0 {
			return height{k: hTop}
		}
		// A balanced callee's returned esp is its entry esp plus the popped
		// return address.
		return lift(get(call.Args[base+espIdx]), 4)
	case ir.OpPhi:
		out := height{k: hBottom}
		for _, a := range v.Args {
			if a == v {
				continue
			}
			out = joinHeight(out, get(a))
		}
		return out
	}
	return height{k: hTop}
}

// HeightRef remembers one memory access through an sp0-relative address.
// The location string is captured eagerly because symbolization rewrites
// the values the analysis saw.
type HeightRef struct {
	Off  int32  // sp0-relative offset
	Size uint8  // access width in bytes
	Loc  string // stable func:block:idx location of the access
}

// HeightFacts is the result of the stack-height analysis of one function.
type HeightFacts struct {
	// Known maps each value proved to be a constant displacement from sp0
	// to that displacement.
	Known map[*ir.Value]int32
	// Refs lists the loads and stores whose address had a known height.
	Refs []HeightRef
}

// heightsProblem is the esp-delta instance of the engine for f, whose
// ESP parameter is esp.
func heightsProblem(f *ir.Func, esp *ir.Value) Problem[heightEnv] {
	f.EnsureLayout()
	n := f.Layout().NumSlots
	return Problem[heightEnv]{
		Forward: true,
		Boundary: func(*ir.Func) heightEnv {
			env := NewEnv[height](n)
			env.Set(esp, height{k: hKnown, c: 0})
			return env
		},
		Bottom: func() heightEnv { return NewEnv[height](n) },
		Join:   joinHeights,
		Copy:   heightEnv.CopyFrom,
		Transfer: func(b *ir.Block, in heightEnv) heightEnv {
			for _, v := range b.Phis {
				in.Set(v, evalHeight(v, esp, in))
			}
			for _, v := range b.Insts {
				if v.Op.HasResult() {
					in.Set(v, evalHeight(v, esp, in))
				}
			}
			return in
		},
	}
}

// Heights abstract-interprets f's esp deltas. Functions without an ESP
// parameter (already symbolized) yield empty facts.
func Heights(f *ir.Func) HeightFacts {
	facts := HeightFacts{Known: make(map[*ir.Value]int32)}
	esp := f.ParamByReg(isa.ESP)
	if esp == nil {
		return facts
	}
	facts.Known[esp] = 0
	prob := heightsProblem(f, esp)
	res := Solve(f, prob)
	for _, b := range f.Blocks {
		in, ok := res[b]
		if !ok {
			continue
		}
		// SSA values never change once defined, so the block's exit state
		// holds every height its instructions saw.
		env := prob.Transfer(b, in)
		record := func(v *ir.Value) {
			if h, ok := env.Get(v); ok && h.k == hKnown {
				facts.Known[v] = h.c
			}
		}
		for _, v := range b.Phis {
			record(v)
		}
		for _, v := range b.Insts {
			if v.Op.HasResult() {
				record(v)
			}
			if v.Op == ir.OpLoad || v.Op == ir.OpStore {
				if h, ok := env.Get(v.Args[0]); ok && h.k == hKnown {
					size := v.Size
					if size == 0 {
						size = 4
					}
					facts.Refs = append(facts.Refs, HeightRef{
						Off: h.c, Size: size, Loc: v.Location(),
					})
				}
			}
		}
	}
	return facts
}

// CheckHeights cross-checks the displacements the stackref refinement
// canonicalized against the independently derived facts. canon is the
// pipeline's own offset table (stackref.Offsets).
func CheckHeights(f *ir.Func, facts HeightFacts, canon map[*ir.Value]int32, rep *Report) {
	for v, c := range canon {
		h, ok := facts.Known[v]
		if !ok {
			rep.Addf("height", Warn, f.Name, v,
				"pipeline canonicalized value as sp0%+d but height analysis cannot confirm it", c)
			continue
		}
		if h != c {
			rep.Addf("height", Error, f.Name, v,
				"pipeline canonicalized value as sp0%+d but height analysis derives sp0%+d", c, h)
		}
	}
	// Unprovable stack balance at calls and returns is worth surfacing: an
	// unbalanced frame is exactly the failure mode that breaks the
	// sp0-relative model.
	balance := func(v *ir.Value, callee *ir.Func, base int) {
		espIdx := -1
		for i, p := range callee.Params {
			if p.RegHint == isa.ESP {
				espIdx = i
				break
			}
		}
		if espIdx < 0 || base+espIdx >= len(v.Args) {
			return
		}
		if _, ok := facts.Known[v.Args[base+espIdx]]; !ok {
			rep.Addf("height", Warn, f.Name, v,
				"cannot prove stack height at call to %s", callee.Name)
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			switch v.Op {
			case ir.OpCall:
				balance(v, v.Callee, 0)
			case ir.OpCallInd:
				if len(v.Targets) > 0 {
					balance(v, v.Targets[0], 1)
				}
			case ir.OpRet:
				if i := f.RetIndexOf(isa.ESP); i >= 0 && i < len(v.Args) {
					if _, ok := facts.Known[v.Args[i]]; !ok {
						rep.Addf("height", Warn, f.Name, v,
							"cannot prove stack height at return")
					}
				}
			}
		}
	}
}

// CheckRefCoverage checks every remembered stack reference of one function
// against the symbolized frame: a reference to a local slot (negative
// sp0 offset) must land inside exactly one recovered stack object,
// including the call-plumbing objects the layout table omits. A reference
// the objects do not cover means the recovered frame is too small for the
// accesses the pipeline itself proved — a miscompilation witness.
func CheckRefCoverage(f *ir.Func, facts HeightFacts, rep *Report) {
	var objects []layout.Var
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca {
				objects = append(objects, layout.Var{
					Name: v.Name, Offset: v.Const, Size: v.AllocSize,
				})
			}
		}
	}
	for _, ref := range facts.Refs {
		if ref.Off >= 0 {
			// Return-address slot or incoming stack argument: not part of
			// the local frame.
			continue
		}
		access := layout.Var{Offset: ref.Off, Size: uint32(ref.Size)}
		covered := false
		for _, obj := range objects {
			if obj.Covers(access) {
				covered = true
				break
			}
		}
		if !covered {
			rep.Add(Diag{
				Check: "height", Severity: Error, Func: f.Name, Loc: ref.Loc,
				Msg: fmt.Sprintf("traced stack reference [%d,%d) is not covered by any recovered stack object",
					ref.Off, access.End()),
			})
		}
	}
}
