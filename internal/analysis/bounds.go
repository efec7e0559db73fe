package analysis

import (
	"wytiwyg/internal/ir"
)

// Static bounds checking of symbolized stack accesses. Every load/store
// whose address is provably alloca+offset must land inside the recovered
// object's [0, AllocSize) — symbolization promised exactly that when it
// partitioned the frame (paper §4.2). The checker runs an interval analysis
// (abstract interpretation with widening) over each function and
// classifies every stack access as proven in-bounds, unprovable (Warn), or
// definitely out of bounds (Error — a miscompilation witness: the access
// escapes the object the symbolizer assigned it to).

// absVal abstracts one SSA value: a pointer into a specific alloca with an
// offset interval (base != nil), or a plain number with a value interval.
// "Unknown anything" is {nil, Top}.
type absVal struct {
	base *ir.Value
	rng  Interval
}

var unknown = absVal{rng: Top}

// joinVal is the lattice join of two abstract values.
func joinVal(a, b absVal) absVal {
	if a.base != b.base {
		return unknown
	}
	return absVal{base: a.base, rng: a.rng.Union(b.rng)}
}

// boundsEnv is the engine state: the abstract value of every SSA value
// computed so far. Missing entries are bottom (not yet evaluated).
type boundsEnv = Env[absVal]

func joinEnv(dst, src boundsEnv) (boundsEnv, bool) {
	return dst, dst.JoinFrom(src, func(dv, sv absVal) (absVal, bool) {
		nv := joinVal(dv, sv)
		return nv, nv != dv
	})
}

func widenEnv(prev, next boundsEnv) boundsEnv {
	next.WidenFrom(prev, func(pv, nv absVal) absVal {
		if pv.base == nv.base {
			nv.rng = nv.rng.WidenFrom(pv.rng)
		}
		return nv
	})
	return next
}

// evalValue computes the abstract value of v under env.
func evalValue(v *ir.Value, env boundsEnv) absVal {
	get := func(a *ir.Value) absVal {
		if av, ok := env.Get(a); ok {
			return av
		}
		return unknown
	}
	switch v.Op {
	case ir.OpConst:
		return absVal{rng: Const(int64(v.Const))}
	case ir.OpAlloca:
		return absVal{base: v, rng: Const(0)}
	case ir.OpSP0:
		return unknown
	case ir.OpAdd:
		a, b := get(v.Args[0]), get(v.Args[1])
		switch {
		case a.base != nil && b.base == nil:
			return absVal{base: a.base, rng: a.rng.Add(b.rng)}
		case b.base != nil && a.base == nil:
			return absVal{base: b.base, rng: b.rng.Add(a.rng)}
		case a.base == nil && b.base == nil:
			return absVal{rng: a.rng.Add(b.rng)}
		}
		return unknown
	case ir.OpSub:
		a, b := get(v.Args[0]), get(v.Args[1])
		switch {
		case a.base != nil && b.base == nil:
			return absVal{base: a.base, rng: a.rng.Sub(b.rng)}
		case a.base == nil && b.base == nil:
			return absVal{rng: a.rng.Sub(b.rng)}
		case a.base != nil && a.base == b.base:
			// Pointer difference within one object: a plain number.
			return absVal{rng: a.rng.Sub(b.rng)}
		}
		return unknown
	case ir.OpMul:
		a, b := get(v.Args[0]), get(v.Args[1])
		if a.base == nil && b.base == nil {
			return absVal{rng: a.rng.Mul(b.rng)}
		}
		return unknown
	case ir.OpNeg:
		a := get(v.Args[0])
		if a.base == nil {
			return absVal{rng: a.rng.Neg()}
		}
		return unknown
	case ir.OpAnd:
		a, b := get(v.Args[0]), get(v.Args[1])
		if k, ok := constOf(v.Args[1]); ok && k >= 0 {
			return absVal{rng: AndMask(int64(k))}
		}
		if k, ok := constOf(v.Args[0]); ok && k >= 0 {
			return absVal{rng: AndMask(int64(k))}
		}
		if a.base == nil && b.base == nil && a.rng.Lo >= 0 && b.rng.Lo >= 0 {
			hi := a.rng.Hi
			if b.rng.Hi < hi {
				hi = b.rng.Hi
			}
			return absVal{rng: Span(0, hi)}
		}
		return unknown
	case ir.OpShl:
		a := get(v.Args[0])
		if k, ok := constOf(v.Args[1]); ok && k >= 0 && k < 32 && a.base == nil {
			return absVal{rng: a.rng.Mul(Const(int64(1) << uint(k)))}
		}
		return unknown
	case ir.OpShr, ir.OpSar:
		a := get(v.Args[0])
		if k, ok := constOf(v.Args[1]); ok && k >= 0 && k < 32 &&
			a.base == nil && a.rng.Lo >= 0 && !a.rng.IsTop() {
			return absVal{rng: Span(a.rng.Lo>>uint(k), a.rng.Hi>>uint(k))}
		}
		return unknown
	case ir.OpDiv:
		a := get(v.Args[0])
		if k, ok := constOf(v.Args[1]); ok && k > 0 && a.base == nil && !a.rng.IsTop() {
			return absVal{rng: Span(a.rng.Lo/int64(k), a.rng.Hi/int64(k))}
		}
		return unknown
	case ir.OpMod:
		a := get(v.Args[0])
		if k, ok := constOf(v.Args[1]); ok && k > 0 && a.base == nil {
			if a.rng.Lo >= 0 {
				return absVal{rng: Span(0, int64(k)-1)}
			}
			return absVal{rng: Span(-(int64(k) - 1), int64(k)-1)}
		}
		return unknown
	case ir.OpCmp:
		return absVal{rng: Span(0, 1)}
	case ir.OpZext:
		a := get(v.Args[0])
		bound := ZextBound(v.Size)
		if a.base == nil && a.rng.Lo >= 0 && a.rng.Hi <= bound.Hi {
			return absVal{rng: a.rng}
		}
		return absVal{rng: bound}
	case ir.OpSext:
		a := get(v.Args[0])
		bound := SextBound(v.Size)
		if a.base == nil && a.rng.Lo >= bound.Lo && a.rng.Hi <= bound.Hi {
			return absVal{rng: a.rng}
		}
		return absVal{rng: bound}
	case ir.OpPhi:
		out := absVal{}
		first := true
		for _, a := range v.Args {
			if a == v {
				continue
			}
			av, ok := env.Get(a)
			if !ok {
				continue // bottom: optimistic
			}
			if first {
				out, first = av, false
			} else {
				out = joinVal(out, av)
			}
		}
		if first {
			return unknown
		}
		return out
	}
	return unknown
}

// evalBlock interprets one block under env, invoking hook on every
// instruction before its effect is recorded.
func evalBlock(b *ir.Block, env boundsEnv, hook func(v *ir.Value, env boundsEnv)) boundsEnv {
	for _, v := range b.Phis {
		env.Set(v, evalValue(v, env))
	}
	for _, v := range b.Insts {
		if hook != nil {
			hook(v, env)
		}
		if v.Op.HasResult() {
			env.Set(v, evalValue(v, env))
		}
	}
	return env
}

// boundsProblem is the interval-analysis instance of the engine for f.
func boundsProblem(f *ir.Func) Problem[boundsEnv] {
	f.EnsureLayout()
	n := f.Layout().NumSlots
	return Problem[boundsEnv]{
		Forward:  true,
		Boundary: func(*ir.Func) boundsEnv { return NewEnv[absVal](n) },
		Bottom:   func() boundsEnv { return NewEnv[absVal](n) },
		Join:     joinEnv,
		Copy:     boundsEnv.CopyFrom,
		Transfer: func(b *ir.Block, in boundsEnv) boundsEnv { return evalBlock(b, in, nil) },
		Widen:    widenEnv,
	}
}

// BoundsStats summarizes one function's accesses.
type BoundsStats struct {
	// Proven counts stack accesses proved inside their object.
	Proven int
	// Unproven counts stack accesses whose offset interval leaks past the
	// object bounds (reported as Warn).
	Unproven int
	// Violations counts accesses proved out of bounds (reported as Error).
	Violations int
	// Outside counts accesses that do not target a recovered stack object
	// at all (globals, emulated stack, computed pointers) — not checkable.
	Outside int
}

// CheckBounds runs the interval analysis over f and reports every
// symbolized stack access that is not provably inside its recovered
// object.
func CheckBounds(f *ir.Func, rep *Report) BoundsStats {
	res := Solve(f, boundsProblem(f))
	var st BoundsStats
	for _, b := range f.Blocks {
		env, ok := res.In[b]
		if !ok {
			continue // unreachable
		}
		// No two of Solve's states share storage, so replaying the block
		// in its own in-state disturbs no other block's.
		evalBlock(b, env, func(v *ir.Value, env boundsEnv) {
			var addr *ir.Value
			switch v.Op {
			case ir.OpLoad, ir.OpStore:
				addr = v.Args[0]
			default:
				return
			}
			av, ok := env.Get(addr)
			if !ok || av.base == nil {
				st.Outside++
				return
			}
			size := int64(v.Size)
			if size == 0 {
				size = 4
			}
			limit := int64(av.base.AllocSize) - size
			switch {
			case av.rng.Hi < 0 || av.rng.Lo > limit:
				st.Violations++
				rep.Addf("bounds", Error, f.Name, v,
					"%s of %d byte(s) at %s%+v is out of bounds of %q [0,%d)",
					v.Op, size, av.base.Name, av.rng, av.base.Name, av.base.AllocSize)
			case av.rng.Lo < 0 || av.rng.Hi > limit:
				st.Unproven++
				rep.Addf("bounds", Warn, f.Name, v,
					"cannot prove %s of %d byte(s) at %s%+v stays inside %q [0,%d)",
					v.Op, size, av.base.Name, av.rng, av.base.Name, av.base.AllocSize)
			default:
				st.Proven++
			}
		})
	}
	return st
}
