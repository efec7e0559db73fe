package codegen

import (
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// Address tiling: load/store addresses of the shape base + index*scale
// (+const) lower to the ISA's scaled-index memory operands instead of
// explicit arithmetic — recovering the addressing modes the original
// binaries used (-44(%ebp,%eax,8) and friends). Interior values of a tile
// whose only consumers are tiled memory operands are never emitted at all.

// tile describes a matched scaled address.
type tile struct {
	base  *ir.Value // nil: absolute (disp only) or alloca-relative
	alloc *ir.Value // alloca anchoring the base, if any
	disp  int32
	index *ir.Value
	scale uint8
}

func validScale(k int32) bool { return k == 1 || k == 2 || k == 4 || k == 8 }

// disableSkip is a debugging escape hatch for the interior-skip cascade.
var disableSkip = false

// matchTile recognizes add-trees with exactly one scaled (mul-by-const)
// component.
func (c *fnCG) matchTile(addr *ir.Value) (tile, []*ir.Value, bool) {
	if addr.Op != ir.OpAdd {
		return tile{}, nil, false
	}
	a, b := addr.Args[0], addr.Args[1]
	var idxMul, baseExpr *ir.Value
	switch {
	case b.Op == ir.OpMul && b.Args[1].Op == ir.OpConst && validScale(b.Args[1].Const):
		idxMul, baseExpr = b, a
	case a.Op == ir.OpMul && a.Args[1].Op == ir.OpConst && validScale(a.Args[1].Const):
		idxMul, baseExpr = a, b
	default:
		return tile{}, nil, false
	}
	t := tile{index: idxMul.Args[0], scale: uint8(idxMul.Args[1].Const)}
	interior := []*ir.Value{addr, idxMul}
	// Peel the base: constant, alloca, add(x, const), or plain value.
	switch {
	case baseExpr.Op == ir.OpConst:
		t.disp = baseExpr.Const
	case baseExpr.Op == ir.OpAlloca:
		t.alloc = baseExpr
	case baseExpr.Op == ir.OpAdd && baseExpr.Args[1].Op == ir.OpConst:
		t.disp = baseExpr.Args[1].Const
		inner := baseExpr.Args[0]
		if inner.Op == ir.OpAlloca {
			t.alloc = inner
		} else {
			t.base = inner
		}
		interior = append(interior, baseExpr)
	default:
		t.base = baseExpr
	}
	// The index must be a plain value (not a constant: folding handles
	// that).
	if t.index.Op == ir.OpConst {
		return tile{}, nil, false
	}
	return t, interior, true
}

// computeTiles fills c.tiles (keyed by address value) and c.skipped (interior
// values that nothing else consumes).
func (c *fnCG) computeTiles() {
	c.tiles = make(map[*ir.Value]tile)
	c.skipped = make(map[*ir.Value]bool)
	c.tileRefs = make(map[*ir.Value]bool)
	if c.g.opts.NoTiles {
		return
	}
	uses := ir.BuildUses(c.f)
	interiors := make(map[*ir.Value][]*ir.Value)
	for _, b := range c.f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpLoad && v.Op != ir.OpStore {
				continue
			}
			addr := v.Args[0]
			if _, done := c.tiles[addr]; done {
				continue
			}
			if t, interior, ok := c.matchTile(addr); ok {
				c.tiles[addr] = t
				interiors[addr] = interior
			}
		}
	}
	for _, t := range c.tiles {
		if t.base != nil {
			c.tileRefs[t.base] = true
		}
		c.tileRefs[t.index] = true
	}
	if disableSkip {
		return
	}
	// Skip cascade: an interior value is never materialized when every use
	// is either a tiled memory address position (for the address value
	// itself) or another skipped value. Iterate to a fixpoint so interiors
	// shared by several tiles (a CSE-merged index multiply feeding four
	// addresses) skip too.
	cand := map[*ir.Value]bool{}
	for addr, interior := range interiors {
		cand[addr] = true
		for _, v := range interior[1:] {
			cand[v] = true
		}
	}
	// Values the tiles themselves read at the memory op must stay
	// materialized (tileRefs, filled above, also blocks their EAX fusion).
	for v := range c.tileRefs {
		delete(cand, v)
	}
	for changed := true; changed; {
		changed = false
		for v := range cand {
			if c.skipped[v] {
				continue
			}
			ok := true
			for _, u := range uses[v] {
				if (u.Op == ir.OpLoad || u.Op == ir.OpStore) && u.Args[0] == v {
					if _, tiled := c.tiles[v]; tiled {
						continue
					}
				}
				if c.skipped[u] {
					continue
				}
				ok = false
				break
			}
			if ok && len(uses[v]) > 0 {
				c.skipped[v] = true
				changed = true
			}
		}
	}
}

// emitTile forms the memory operand for a tiled address. Register budget:
// the base goes through scratch; the index uses EAX unless the base landed
// there, in which case ECX is free.
func (c *fnCG) emitTile(t tile, scratch isa.Reg) isa.MemRef {
	disp := t.disp
	baseReg := isa.NoReg
	switch {
	case t.alloc != nil:
		h := c.homes[t.alloc]
		baseReg = isa.ESP
		disp += h.allocOff + c.pushDepth
	case t.base != nil:
		baseReg = c.operand(t.base, scratch)
	}
	idxScratch := isa.EAX
	if baseReg == isa.EAX {
		idxScratch = scratch
	}
	idxReg := c.operand(t.index, idxScratch)
	return isa.MemRef{Base: baseReg, Index: idxReg, Scale: t.scale, Disp: disp}
}
