package ir

import (
	"fmt"
	"math"
)

// Verify checks structural invariants of a module: every block ends in
// exactly one terminator, successor/predecessor edges are symmetric, phi
// arity matches predecessors, arguments belong to the same function,
// parameter/return counts are consistent at call sites, and every use of a
// value is dominated by its definition (SSA well-formedness; phi arguments
// must be defined by the end of the corresponding predecessor).
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := verifyFunc(f); err != nil {
			return fmt.Errorf("ir: func %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	// Refresh the dense execution layout (layout.go): Verify runs after
	// every transformation pass, so execution always sees current slots.
	f.EnsureLayout()
	for _, p := range f.Params {
		if p.Op != OpParam {
			return fmt.Errorf("param %s has op %s", p, p.Op)
		}
	}
	bySlot := f.valuesBySlot()
	owned := func(v *Value) bool {
		s := v.Slot()
		return s >= 0 && s < len(bySlot) && bySlot[s] == v
	}
	for _, b := range f.Blocks {
		if b.Func != f {
			return fmt.Errorf("block b%d has wrong func", b.ID)
		}
		t := b.Term()
		if t == nil {
			return fmt.Errorf("block b%d lacks a terminator", b.ID)
		}
		for i, v := range b.Insts {
			if v.Op.IsTerm() && i != len(b.Insts)-1 {
				return fmt.Errorf("block b%d: terminator %s mid-block", b.ID, v)
			}
			if v.Block != b {
				return fmt.Errorf("block b%d: %s has wrong block", b.ID, v)
			}
		}
		switch t.Op {
		case OpJmp:
			if len(b.Succs) != 1 {
				return fmt.Errorf("block b%d: jmp with %d succs", b.ID, len(b.Succs))
			}
		case OpBr:
			if len(b.Succs) != 2 {
				return fmt.Errorf("block b%d: br with %d succs", b.ID, len(b.Succs))
			}
			if len(t.Args) != 1 {
				return fmt.Errorf("block b%d: br with %d args", b.ID, len(t.Args))
			}
		case OpSwitch:
			if len(b.Succs) != len(t.Cases)+1 {
				return fmt.Errorf("block b%d: switch with %d cases but %d succs",
					b.ID, len(t.Cases), len(b.Succs))
			}
		case OpRet:
			if len(t.Args) != f.NumRet {
				return fmt.Errorf("block b%d: ret with %d values, func returns %d",
					b.ID, len(t.Args), f.NumRet)
			}
			if len(b.Succs) != 0 {
				return fmt.Errorf("block b%d: ret with successors", b.ID)
			}
		case OpTrap:
			if len(b.Succs) != 0 {
				return fmt.Errorf("block b%d: trap with successors", b.ID)
			}
		}
		for _, s := range b.Succs {
			if !hasBlock(s.Preds, b) {
				return fmt.Errorf("edge b%d->b%d missing pred backlink", b.ID, s.ID)
			}
		}
		for _, p := range b.Preds {
			if !hasBlock(p.Succs, b) {
				return fmt.Errorf("edge b%d<-b%d missing succ link", b.ID, p.ID)
			}
		}
		for _, v := range b.Phis {
			if v.Op != OpPhi {
				return fmt.Errorf("block b%d: non-phi %s in phi list", b.ID, v)
			}
			if len(v.Args) != len(b.Preds) {
				return fmt.Errorf("block b%d: phi %s has %d args for %d preds",
					b.ID, v, len(v.Args), len(b.Preds))
			}
		}
		check := func(v *Value) error {
			for _, a := range v.Args {
				if a == nil {
					return fmt.Errorf("block b%d: %s(%s) has nil arg", b.ID, v, v.Op)
				}
				if !owned(a) {
					return fmt.Errorf("block b%d: %s(%s) uses foreign value %s(%s)",
						b.ID, v, v.Op, a, a.Op)
				}
			}
			switch v.Op {
			case OpCall:
				if v.Callee == nil {
					return fmt.Errorf("call %s without callee", v)
				}
				if len(v.Args) != len(v.Callee.Params) {
					return fmt.Errorf("call %s to %s with %d args, want %d",
						v, v.Callee.Name, len(v.Args), len(v.Callee.Params))
				}
				if v.NumRet != v.Callee.NumRet {
					return fmt.Errorf("call %s: NumRet %d != callee %d",
						v, v.NumRet, v.Callee.NumRet)
				}
			case OpExtract:
				if len(v.Args) != 1 {
					return fmt.Errorf("extract %s arity", v)
				}
				if v.Idx >= v.Args[0].NumRet {
					return fmt.Errorf("extract %s index %d out of %d", v, v.Idx, v.Args[0].NumRet)
				}
			case OpLoad:
				if len(v.Args) != 1 {
					return fmt.Errorf("load %s arity", v)
				}
			case OpStore:
				if len(v.Args) != 2 {
					return fmt.Errorf("store %s arity", v)
				}
			}
			return nil
		}
		for _, v := range b.Phis {
			if err := check(v); err != nil {
				return err
			}
		}
		for _, v := range b.Insts {
			if err := check(v); err != nil {
				return err
			}
		}
	}
	return verifyDominance(f)
}

// valuesBySlot returns f's parameters, phis and instructions indexed by
// their dense slots. A value that entered f without f.NewValue (and so
// without invalidating the layout) can hold a stale or foreign slot; the
// layout is then recomputed once.
func (f *Func) valuesBySlot() []*Value {
	for try := 0; ; try++ {
		bySlot := make([]*Value, f.layout.NumSlots)
		ok := true
		put := func(v *Value) {
			if s := v.Slot(); s >= 0 && s < len(bySlot) && (bySlot[s] == nil || bySlot[s] == v) {
				bySlot[s] = v
			} else {
				ok = false
			}
		}
		for _, p := range f.Params {
			put(p)
		}
		for _, b := range f.Blocks {
			for _, v := range b.Phis {
				put(v)
			}
			for _, v := range b.Insts {
				put(v)
			}
		}
		if ok || try > 0 {
			return bySlot
		}
		f.layoutOK.Store(false)
		f.EnsureLayout()
	}
}

// verifyDominance checks that every value use is dominated by its
// definition. Parameters dominate everything; a phi's i-th argument must be
// defined by the end of the i-th predecessor. Unreachable blocks are
// skipped: passes in flight may leave them behind and dominance is
// undefined there.
func verifyDominance(f *Func) error {
	idom := Dominators(f)
	// Definition order within a block by slot: phis first (they all
	// "define at the top"), then instructions in list order; parameters
	// are marked apart. Every operand is owned by f (verifyFunc checked),
	// so its slot indexes defIdx.
	const param = math.MinInt32
	defIdx := make([]int32, f.layout.NumSlots)
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			defIdx[v.slot] = -1
		}
		for i, v := range b.Insts {
			defIdx[v.slot] = int32(i)
		}
	}
	for _, p := range f.Params {
		defIdx[p.slot] = param
	}
	// dominates reports whether block a dominates block b (both reachable).
	dominates := func(a, b *Block) bool {
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
	// defReaches reports whether def's value is available at (useBlock, pos).
	defReaches := func(def *Value, useBlock *Block, pos int) bool {
		if defIdx[def.slot] == param || def.Op == OpConst && def.Block == nil {
			return true
		}
		db := def.Block
		if db == nil {
			return false
		}
		if db == useBlock {
			return int(defIdx[def.slot]) < pos
		}
		return dominates(db, useBlock)
	}
	for _, b := range f.Blocks {
		if _, reachable := idom[b]; !reachable && b != f.Entry() {
			continue
		}
		for _, v := range b.Phis {
			for i, a := range v.Args {
				if i >= len(b.Preds) {
					break // arity mismatch reported by the structural pass
				}
				p := b.Preds[i]
				if _, ok := idom[p]; !ok && p != f.Entry() {
					continue // value flows in from an unreachable edge
				}
				if !defReaches(a, p, len(p.Insts)) {
					return fmt.Errorf("block b%d: phi %s arg %d (%s, def at %s) not available at end of pred b%d",
						b.ID, v, i, a, a.Location(), p.ID)
				}
			}
		}
		for i, v := range b.Insts {
			for _, a := range v.Args {
				if !defReaches(a, b, i) {
					return fmt.Errorf("block b%d: %s(%s) uses %s (def at %s) before its definition dominates it",
						b.ID, v, v.Op, a, a.Location())
				}
			}
		}
	}
	return nil
}

// Dominators computes the immediate-dominator tree of f's reachable blocks
// (Cooper/Harvey/Kennedy iterative algorithm). The entry maps to itself;
// unreachable blocks are absent from the result.
func Dominators(f *Func) map[*Block]*Block {
	rpo := RPO(f)
	entry := rpo[0]
	rpoNum := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		rpoNum[b] = i
	}
	idom := map[*Block]*Block{entry: entry}
	intersect := func(a, b *Block) *Block {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

func hasBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}
