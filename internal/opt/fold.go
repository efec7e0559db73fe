package opt

import "wytiwyg/internal/ir"

// FoldConstants folds constant expressions and applies algebraic
// simplifications in place. Returns the number of rewritten values.
func FoldConstants(f *ir.Func) int {
	n := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if foldValue(f, v) {
					n++
					changed = true
				}
			}
			// Single-predecessor phis are copies.
			if len(b.Preds) == 1 && len(b.Phis) > 0 {
				for _, phi := range b.Phis {
					ReplaceUses(f, phi, phi.Args[0])
				}
				b.Phis = nil
				changed = true
			}
			// Phis whose incoming values are all identical (or the phi
			// itself) collapse.
			keep := b.Phis[:0]
			for _, phi := range b.Phis {
				var same *ir.Value
				trivial := true
				for _, a := range phi.Args {
					if a == phi || a == same {
						continue
					}
					if same == nil {
						same = a
						continue
					}
					trivial = false
					break
				}
				if trivial && same != nil {
					ReplaceUses(f, phi, same)
					changed = true
					n++
					continue
				}
				keep = append(keep, phi)
			}
			b.Phis = keep
		}
	}
	return n
}

// FoldModule folds every function.
func FoldModule(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += FoldConstants(f)
	}
	return n
}

// replaceAndKill replaces every use of v with repl and turns v into an
// inert constant so the fold loop does not match it again (DCE sweeps it).
func replaceAndKill(f *ir.Func, v, repl *ir.Value) {
	ReplaceUses(f, v, repl)
	v.Op = ir.OpConst
	v.Const = 0
	v.Args = nil
}

func cval(v *ir.Value) (int32, bool) {
	if v.Op == ir.OpConst {
		return v.Const, true
	}
	return 0, false
}

func makeConst(v *ir.Value, c int32) {
	v.Op = ir.OpConst
	v.Const = c
	v.Args = nil
}

// foldValue rewrites v in place when it folds; reports whether it changed.
func foldValue(f *ir.Func, v *ir.Value) bool {
	switch v.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpSar, ir.OpDiv, ir.OpMod:
		a, aok := cval(v.Args[0])
		b, bok := cval(v.Args[1])
		if aok && bok {
			if c, ok := foldBin(v.Op, a, b); ok {
				makeConst(v, c)
				return true
			}
			return false
		}
		// Identities.
		if bok {
			switch {
			case b == 0 && (v.Op == ir.OpAdd || v.Op == ir.OpSub || v.Op == ir.OpOr ||
				v.Op == ir.OpXor || v.Op == ir.OpShl || v.Op == ir.OpShr || v.Op == ir.OpSar):
				replaceAndKill(f, v, v.Args[0])
				return true
			case b == 1 && (v.Op == ir.OpMul || v.Op == ir.OpDiv):
				replaceAndKill(f, v, v.Args[0])
				return true
			case b == 0 && v.Op == ir.OpMul:
				makeConst(v, 0)
				return true
			case b == 0 && v.Op == ir.OpAnd:
				makeConst(v, 0)
				return true
			}
		}
		if aok {
			switch {
			case a == 0 && v.Op == ir.OpAdd:
				replaceAndKill(f, v, v.Args[1])
				return true
			case a == 0 && (v.Op == ir.OpMul || v.Op == ir.OpAnd):
				makeConst(v, 0)
				return true
			case a == 1 && v.Op == ir.OpMul:
				replaceAndKill(f, v, v.Args[1])
				return true
			}
		}
		// Reassociate (x + c1) + c2 -> x + (c1+c2).
		if (v.Op == ir.OpAdd || v.Op == ir.OpSub) && bok {
			inner := v.Args[0]
			if inner.Op == ir.OpAdd {
				if c1, ok := cval(inner.Args[1]); ok {
					delta := b
					if v.Op == ir.OpSub {
						delta = -b
					}
					k := f.NewValue(ir.OpConst)
					k.Const = c1 + delta
					k.Block = v.Block
					insertBefore(v.Block, v, k)
					v.Op = ir.OpAdd
					v.Args = []*ir.Value{inner.Args[0], k}
					return true
				}
			}
		}
		// x - x = 0.
		if v.Op == ir.OpSub && v.Args[0] == v.Args[1] {
			makeConst(v, 0)
			return true
		}
	case ir.OpNeg:
		if a, ok := cval(v.Args[0]); ok {
			makeConst(v, -a)
			return true
		}
	case ir.OpNot:
		if a, ok := cval(v.Args[0]); ok {
			makeConst(v, ^a)
			return true
		}
	case ir.OpCmp:
		a, aok := cval(v.Args[0])
		b, bok := cval(v.Args[1])
		if aok && bok {
			if v.Cond.Eval(uint32(a), uint32(b)) {
				makeConst(v, 1)
			} else {
				makeConst(v, 0)
			}
			return true
		}
	case ir.OpSext:
		if a, ok := cval(v.Args[0]); ok {
			switch v.Size {
			case 1:
				makeConst(v, int32(int8(a)))
			case 2:
				makeConst(v, int32(int16(a)))
			default:
				makeConst(v, a)
			}
			return true
		}
	case ir.OpZext:
		if a, ok := cval(v.Args[0]); ok {
			switch v.Size {
			case 1:
				makeConst(v, a&0xFF)
			case 2:
				makeConst(v, a&0xFFFF)
			default:
				makeConst(v, a)
			}
			return true
		}
	case ir.OpSubreg8:
		a, aok := cval(v.Args[0])
		b, bok := cval(v.Args[1])
		if aok && bok {
			makeConst(v, a&^0xFF|b&0xFF)
			return true
		}
	}
	return false
}

func foldBin(op ir.Op, a, b int32) (int32, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint32(b) & 31), true
	case ir.OpShr:
		return int32(uint32(a) >> (uint32(b) & 31)), true
	case ir.OpSar:
		return a >> (uint32(b) & 31), true
	}
	return 0, false
}

// insertBefore places nv immediately before anchor within block b.
func insertBefore(b *ir.Block, anchor, nv *ir.Value) {
	for i, v := range b.Insts {
		if v == anchor {
			b.Insts = append(b.Insts[:i], append([]*ir.Value{nv}, b.Insts[i:]...)...)
			return
		}
	}
	// Anchor not found (phi?): prepend.
	b.Insts = append([]*ir.Value{nv}, b.Insts...)
}
