package codegen

import (
	"wytiwyg/internal/ir"
)

// EAX fusion: an expression temporary with exactly one use in the
// immediately following instruction never needs a frame slot — the producer
// leaves it in EAX and the consumer reads it from there. Safety requires
// the consumer to read the fused operand before anything clobbers EAX, so
// fusion is allowed only in the operand position each consumer reads first
// (or in positions whose materialization never touches EAX).

// producesInEAX reports ops whose slot-homed results pass through EAX.
func producesInEAX(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar, ir.OpNeg, ir.OpNot,
		ir.OpSubreg8, ir.OpSext, ir.OpZext, ir.OpLoad, ir.OpCmp:
		return true
	}
	return false
}

// fusePosOK reports whether u reads operand v early enough for EAX
// forwarding.
func (c *fnCG) fusePosOK(u, v *ir.Value, blk *ir.Block) bool {
	hasEdgeCopies := func() bool {
		for _, s := range blk.Succs {
			if len(s.Phis) > 0 && len(s.Preds) >= 2 {
				return true
			}
		}
		return false
	}
	switch u.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar, ir.OpSubreg8:
		return u.Args[0] == v && u.Args[1] != v
	case ir.OpNeg, ir.OpNot, ir.OpSext, ir.OpZext:
		return u.Args[0] == v
	case ir.OpCmp:
		if c.fused[u] {
			// The compare re-emits at the branch; the window is gone.
			return false
		}
		return u.Args[0] == v && u.Args[1] != v
	case ir.OpLoad:
		return u.Args[0] == v
	case ir.OpStore:
		if u.Args[0] == v {
			return true // addresses are checked against the cache first
		}
		// The value position is safe only when the address materializes
		// through ECX alone; tiled addresses also load an index into EAX.
		if _, tiled := c.tiles[u.Args[0]]; tiled {
			return false
		}
		return u.Args[1] == v
	case ir.OpBr:
		return u.Args[0] == v && !hasEdgeCopies()
	case ir.OpSwitch:
		return u.Args[0] == v && !hasEdgeCopies()
	case ir.OpRet:
		return len(u.Args) == 1 && u.Args[0] == v && !hasEdgeCopies()
	case ir.OpCall, ir.OpCallExt:
		// Arguments push last-first: only the last argument is read before
		// EAX is clobbered.
		return len(u.Args) > 0 && u.Args[len(u.Args)-1] == v
	case ir.OpCallInd:
		// The target is read first (into EDX); the last argument is pushed
		// first.
		if u.Args[0] == v {
			return true
		}
		return len(u.Args) > 1 && u.Args[len(u.Args)-1] == v
	case ir.OpCallExtRaw:
		return u.Args[0] == v
	}
	return false
}

// computeEAXFusion fills c.eaxFuse.
func (c *fnCG) computeEAXFusion() {
	c.eaxFuse = make(map[*ir.Value]bool)
	if c.g.opts.NoEAXFuse {
		return
	}
	uses := ir.BuildUses(c.f)
	for _, blk := range c.order {
		for i := 0; i+1 < len(blk.Insts); i++ {
			v := blk.Insts[i]
			u := blk.Insts[i+1]
			if !producesInEAX(v.Op) || c.fused[v] {
				continue
			}
			if c.skipped[v] || c.skipped[u] {
				continue // tile interiors are never materialized
			}
			if c.tileRefs[v] {
				continue // tiles re-read this value at the memory op
			}
			if h := c.homes[v]; h.inReg || h.konst || h.frameAddr {
				continue
			}
			if len(uses[v]) != 1 || uses[v][0] != u {
				continue
			}
			// Exactly one operand slot must reference v.
			refs := 0
			for _, a := range u.Args {
				if a == v {
					refs++
				}
			}
			if refs != 1 {
				continue
			}
			if c.fusePosOK(u, v, blk) {
				c.eaxFuse[v] = true
			}
		}
	}
}
