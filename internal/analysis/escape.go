package analysis

import "wytiwyg/internal/ir"

// Frame-escape analysis. An alloca's address "escapes" when it leaves the
// function's own address arithmetic: it is stored to memory as a value,
// passed to a call, returned, or consumed by an operation that is not a
// load/store address, further arithmetic, a phi, or an address comparison.
// Non-escaping allocas cannot alias unknown pointers and cannot be touched
// by callees — the facts that make mem2reg promotion and store elimination
// provably safe (paper §2.1's aliasing argument).

// EscapeFacts bundles the address-derivation and escape facts of one
// function.
type EscapeFacts struct {
	// Roots maps every value provably derived from a single alloca
	// (through add/sub arithmetic and phis) to that alloca. Values mixing
	// two different allocas are absent.
	Roots map[*ir.Value]*ir.Value
	// Escaped holds the allocas whose address escapes.
	Escaped map[*ir.Value]bool
}

// Escape computes the escape facts for one function.
func Escape(f *ir.Func) EscapeFacts {
	roots := make(map[*ir.Value]*ir.Value)
	conflict := make(map[*ir.Value]bool)
	esc := make(map[*ir.Value]bool)
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca {
				roots[v] = v
			}
		}
	}
	// propagate folds source root r into v's root. A value reachable from
	// two different allocas is an unknown pointer; anything it does could
	// touch either object, so both conservatively escape.
	propagate := func(v *ir.Value, r *ir.Value) bool {
		if r == nil {
			return false
		}
		if conflict[v] {
			esc[r] = true
			return false
		}
		if cur, ok := roots[v]; ok {
			if cur != r {
				delete(roots, v)
				conflict[v] = true
				esc[cur] = true
				esc[r] = true
				return true
			}
			return false
		}
		roots[v] = r
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				switch v.Op {
				case ir.OpAdd:
					if propagate(v, roots[v.Args[0]]) {
						changed = true
					}
					if propagate(v, roots[v.Args[1]]) {
						changed = true
					}
				case ir.OpSub:
					if propagate(v, roots[v.Args[0]]) {
						changed = true
					}
				}
			}
			for _, v := range b.Phis {
				for _, a := range v.Args {
					if a == v {
						continue
					}
					if propagate(v, roots[a]) {
						changed = true
					}
				}
			}
		}
	}
	u := ir.BuildUses(f)
	for v, root := range roots {
		for _, use := range u[v] {
			switch use.Op {
			case ir.OpLoad:
				// Address position: fine.
			case ir.OpStore:
				if use.Args[0] != v {
					esc[root] = true // the address itself is stored
				}
			case ir.OpAdd, ir.OpSub, ir.OpPhi:
				// Covered by root propagation.
			case ir.OpCmp:
				// Comparing addresses does not escape them.
			default:
				esc[root] = true
			}
		}
	}
	return EscapeFacts{Roots: roots, Escaped: esc}
}

// Escapes returns just the escape set of f.
func Escapes(f *ir.Func) map[*ir.Value]bool { return Escape(f).Escaped }
