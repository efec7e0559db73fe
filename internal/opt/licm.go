package opt

import "wytiwyg/internal/ir"

// LICM hoists loop-invariant pure computations into the block preceding the
// loop header. Loops are detected as reverse-post-order back edges; the
// body approximation (the RPO range between header and latch) is safe
// because only pure, non-trapping values move.
func LICM(f *ir.Func) int {
	order := ir.RPOAll(f)
	pos := make(map[*ir.Block]int, len(order))
	for i, b := range order {
		pos[b] = i
	}
	idom := ir.Dominators(f)
	dominates := func(a, b *ir.Block) bool {
		for ; b != nil; b = idom[b] {
			if b == a {
				return true
			}
			if b == f.Entry() {
				return false
			}
		}
		return false
	}
	moved := 0
	for _, latch := range order {
		for _, header := range latch.Succs {
			hp, ok := pos[header]
			if !ok || hp > pos[latch] {
				continue // not a back edge
			}
			// Natural-loop membership: blocks that reach the latch
			// backwards without crossing the header.
			members := map[*ir.Block]bool{header: true, latch: true}
			stack := []*ir.Block{latch}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if b == header {
					continue
				}
				for _, p := range b.Preds {
					if !members[p] {
						members[p] = true
						stack = append(stack, p)
					}
				}
			}
			inLoop := func(b *ir.Block) bool { return members[b] }
			// Preheader: the unique predecessor of the header from outside
			// the loop, itself ending in an unconditional jump.
			var pre *ir.Block
			outside := 0
			for _, p := range header.Preds {
				if !members[p] {
					outside++
					pre = p
				}
			}
			if outside != 1 || pre == nil || len(pre.Succs) != 1 {
				continue
			}
			// Values defined outside the loop (or hoisted) are invariant —
			// but hoisting a use into the preheader is only sound when the
			// definition dominates the preheader (a def in a block merely
			// *outside* the loop, e.g. past the exit, would end up below
			// its new use).
			hoisted := map[*ir.Value]bool{}
			invariant := func(v *ir.Value) bool {
				if hoisted[v] {
					return true
				}
				if v.Op == ir.OpParam {
					return true
				}
				return v.Block != nil && !inLoop(v.Block) && dominates(v.Block, pre)
			}
			for changed := true; changed; {
				changed = false
				for i := hp; i <= pos[latch] && i < len(order); i++ {
					b := order[i]
					if !members[b] {
						continue
					}
					insts := b.Insts[:0]
					for _, v := range b.Insts {
						if hoistable(v) && allInvariant(v, invariant) {
							// Move before the preheader terminator.
							pre.Insts = append(pre.Insts[:len(pre.Insts)-1],
								v, pre.Insts[len(pre.Insts)-1])
							v.Block = pre
							hoisted[v] = true
							moved++
							changed = true
							continue
						}
						insts = append(insts, v)
					}
					b.Insts = insts
				}
			}
		}
	}
	return moved
}

func hoistable(v *ir.Value) bool {
	switch v.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpSar, ir.OpNeg, ir.OpNot, ir.OpCmp,
		ir.OpSext, ir.OpZext, ir.OpSubreg8, ir.OpConst:
		return true
	case ir.OpDiv, ir.OpMod:
		d := v.Args[1]
		return d.Op == ir.OpConst && d.Const != 0
	}
	return false
}

func allInvariant(v *ir.Value, inv func(*ir.Value) bool) bool {
	for _, a := range v.Args {
		if !inv(a) {
			return false
		}
	}
	return true
}

// LICMModule hoists across every function.
func LICMModule(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += LICM(f)
	}
	return n
}
