package codegen

import (
	"fmt"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// Instruction emission. Values move through EAX (primary scratch) and
// ECX/EDX (secondary) between their homes.

var aluFor = map[ir.Op]isa.Op{
	ir.OpAdd: isa.ADD, ir.OpSub: isa.SUB, ir.OpMul: isa.MUL, ir.OpDiv: isa.DIV,
	ir.OpMod: isa.MOD, ir.OpAnd: isa.AND, ir.OpOr: isa.OR, ir.OpXor: isa.XOR,
	ir.OpShl: isa.SHL, ir.OpShr: isa.SHR, ir.OpSar: isa.SAR,
}

// operand materializes v into a register: its home register when it has
// one, otherwise into scratch.
func (c *fnCG) operand(v *ir.Value, scratch isa.Reg) isa.Reg {
	if v == c.eaxCache {
		c.eaxCache = nil
		return isa.EAX
	}
	h, ok := c.homes[v]
	if !ok {
		panic(fmt.Sprintf("codegen: no home for %s(%s)", v, v.Op))
	}
	b := c.b()
	switch {
	case h.inReg:
		return h.reg
	case h.konst:
		b.MovI(scratch, h.cval)
		return scratch
	case h.frameAddr:
		b.Lea(scratch, c.allocaAddr(h.allocOff))
		return scratch
	case h.param:
		b.Load(scratch, c.paramMem(h.pidx), 4, false)
		return scratch
	default:
		b.Load(scratch, c.slotMem(h.slot), 4, false)
		return scratch
	}
}

// intoEAX puts v's value into EAX.
func (c *fnCG) intoEAX(v *ir.Value) {
	r := c.operand(v, isa.EAX)
	if r != isa.EAX {
		c.b().Mov(isa.EAX, r)
	}
}

// store writes srcReg into v's home. Fused values stay in EAX for the next
// instruction instead.
func (c *fnCG) store(v *ir.Value, src isa.Reg) {
	if c.eaxFuse[v] {
		if src != isa.EAX {
			c.b().Mov(isa.EAX, src)
		}
		c.eaxPending = v
		return
	}
	h, ok := c.homes[v]
	if !ok {
		return // result never used anywhere
	}
	b := c.b()
	switch {
	case h.inReg:
		if h.reg != src {
			b.Mov(h.reg, src)
		}
	case h.konst, h.frameAddr:
		// Nothing to store.
	case h.param:
		b.Store(c.paramMem(h.pidx), src, 4)
	default:
		b.Store(c.slotMem(h.slot), src, 4)
	}
}

// memOperand forms an addressing mode for an address value, folding
// alloca+const and base+const shapes. May clobber scratch.
func (c *fnCG) memOperand(addr *ir.Value, scratch isa.Reg) isa.MemRef {
	// A fused address is already sitting in EAX.
	if addr == c.eaxCache {
		c.eaxCache = nil
		return asm.Mem(isa.EAX, 0)
	}
	if t, ok := c.tiles[addr]; ok {
		return c.emitTile(t, scratch)
	}
	h := c.homes[addr]
	if h.frameAddr {
		return c.allocaAddr(h.allocOff)
	}
	if h.konst {
		return asm.MemAbs(uint32(h.cval))
	}
	// Fold add(x, const) into the addressing mode — unless x was fused into
	// the add (then x has no home to re-read; use the add's own value).
	if addr.Op == ir.OpAdd {
		if k := addr.Args[1]; k.Op == ir.OpConst && !c.eaxFuse[addr.Args[0]] {
			inner := c.homes[addr.Args[0]]
			if inner.frameAddr {
				return c.allocaAddr(inner.allocOff + k.Const)
			}
			base := c.operand(addr.Args[0], scratch)
			return asm.Mem(base, k.Const)
		}
	}
	base := c.operand(addr, scratch)
	return asm.Mem(base, 0)
}

// cmpFusable reports whether a compare can fuse into its branch.
func (c *fnCG) cmpFusable(uses ir.Uses, v *ir.Value) bool {
	if v.Op != ir.OpCmp {
		return false
	}
	us := uses[v]
	if len(us) != 1 {
		return false
	}
	u := us[0]
	return u.Op == ir.OpBr && u.Block == v.Block
}

// emitCmp emits CMP setting flags for v's operands.
func (c *fnCG) emitCmp(v *ir.Value) {
	b := c.b()
	a := c.operand(v.Args[0], isa.EAX)
	if k := v.Args[1]; k.Op == ir.OpConst {
		b.CmpI(a, k.Const)
		return
	}
	rb := c.operand(v.Args[1], isa.ECX)
	b.Cmp(a, rb)
}

// emitEdgeCopies performs phi moves for edges where this block is the
// unique side (multi-pred successors; the successor's other preds handle
// their own edges).
func (c *fnCG) emitEdgeCopies(blk *ir.Block) error {
	for _, s := range blk.Succs {
		if len(s.Phis) == 0 || len(s.Preds) < 2 {
			continue
		}
		if len(blk.Succs) != 1 {
			return fmt.Errorf("critical edge b%d->b%d not split", blk.ID, s.ID)
		}
		pi := -1
		for i, p := range s.Preds {
			if p == blk {
				pi = i
				break
			}
		}
		if pi < 0 {
			return fmt.Errorf("edge b%d->b%d missing pred entry", blk.ID, s.ID)
		}
		var dsts, srcs []*ir.Value
		for _, phi := range s.Phis {
			dsts = append(dsts, phi)
			srcs = append(srcs, phi.Args[pi])
		}
		c.parallelMove(dsts, srcs)
	}
	return nil
}

// parallelMove copies srcs into dsts simultaneously: moves whose
// destination is not the home of a pending source go directly; cycles fall
// back to the stack.
func (c *fnCG) parallelMove(dsts, srcs []*ir.Value) {
	type pair struct{ d, s *ir.Value }
	var pending []pair
	for i := range dsts {
		if c.homeKey(dsts[i]) == c.homeKey(srcs[i]) {
			continue // already in place
		}
		pending = append(pending, pair{dsts[i], srcs[i]})
	}
	for len(pending) > 0 {
		emitted := false
		for i, p := range pending {
			dk := c.homeKey(p.d)
			conflict := false
			for j, q := range pending {
				if j != i && c.homeKey(q.s) == dk {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			c.moveValue(p.d, p.s)
			pending = append(pending[:i], pending[i+1:]...)
			emitted = true
			break
		}
		if emitted {
			continue
		}
		// Cycle: rotate through the stack.
		for _, p := range pending {
			r := c.operand(p.s, isa.EAX)
			c.push(r)
		}
		for i := len(pending) - 1; i >= 0; i-- {
			c.pop(isa.ECX)
			c.store(pending[i].d, isa.ECX)
		}
		pending = nil
	}
}

// homeKey identifies a storage location for interference checks.
func (c *fnCG) homeKey(v *ir.Value) string {
	h := c.homes[v]
	switch {
	case h.inReg:
		return "r" + h.reg.String()
	case h.konst:
		return fmt.Sprintf("k%d#%d", h.cval, v.ID) // constants never conflict
	case h.frameAddr:
		return fmt.Sprintf("a%d", h.allocOff)
	case h.param:
		return fmt.Sprintf("p%d", h.pidx)
	default:
		return fmt.Sprintf("s%d", h.slot)
	}
}

// moveValue copies src's value into dst's home.
func (c *fnCG) moveValue(dst, src *ir.Value) {
	hd := c.homes[dst]
	if hd.inReg {
		r := c.operand(src, hd.reg)
		if r != hd.reg {
			c.b().Mov(hd.reg, r)
		}
		return
	}
	r := c.operand(src, isa.EAX)
	c.store(dst, r)
}

// emitHeadCopies handles phis of single-predecessor blocks at block entry.
func (c *fnCG) emitHeadCopies(blk *ir.Block) {
	if len(blk.Preds) != 1 || len(blk.Phis) == 0 {
		return
	}
	var dsts, srcs []*ir.Value
	for _, phi := range blk.Phis {
		dsts = append(dsts, phi)
		srcs = append(srcs, phi.Args[0])
	}
	c.parallelMove(dsts, srcs)
}

func (c *fnCG) emitValue(blk *ir.Block, v *ir.Value, bi int) error {
	b := c.b()
	switch v.Op {
	case ir.OpConst, ir.OpAlloca, ir.OpParam, ir.OpPhi, ir.OpSP0:
		return nil
	case ir.OpExtract:
		return nil // spread at the call site
	}
	if c.skipped[v] {
		return nil // consumed entirely by tiled memory operands
	}
	switch v.Op {

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar:
		op := aluFor[v.Op]
		// Compute directly into the destination register when safe (the
		// second operand must not live there).
		dst := isa.EAX
		if hv := c.homes[v]; hv.inReg {
			if h1 := c.homes[v.Args[1]]; !(h1.inReg && h1.reg == hv.reg) {
				dst = hv.reg
			}
		}
		if r0 := c.operand(v.Args[0], dst); r0 != dst {
			b.Mov(dst, r0)
		}
		if k := v.Args[1]; k.Op == ir.OpConst {
			if (op == isa.DIV || op == isa.MOD) && k.Const == 0 {
				// Fold-resistant division by zero: keep the trap at runtime
				// by dividing by a zero register.
				b.MovI(isa.ECX, 0)
				b.Bin(op, dst, isa.ECX)
			} else {
				b.BinI(op.ImmForm(), dst, k.Const)
			}
		} else {
			rb := c.operand(v.Args[1], isa.ECX)
			b.Bin(op, dst, rb)
		}
		if dst == isa.EAX {
			c.store(v, isa.EAX)
		}

	case ir.OpNeg:
		c.intoEAX(v.Args[0])
		b.Neg(isa.EAX)
		c.store(v, isa.EAX)
	case ir.OpNot:
		c.intoEAX(v.Args[0])
		b.Not(isa.EAX)
		c.store(v, isa.EAX)

	case ir.OpSubreg8:
		c.intoEAX(v.Args[0])
		rb := c.operand(v.Args[1], isa.ECX)
		b.MovLo8(isa.EAX, rb)
		c.store(v, isa.EAX)

	case ir.OpSext:
		c.intoEAX(v.Args[0])
		switch v.Size {
		case 1:
			b.BinI(isa.SHLI, isa.EAX, 24)
			b.BinI(isa.SARI, isa.EAX, 24)
		case 2:
			b.BinI(isa.SHLI, isa.EAX, 16)
			b.BinI(isa.SARI, isa.EAX, 16)
		}
		c.store(v, isa.EAX)
	case ir.OpZext:
		c.intoEAX(v.Args[0])
		switch v.Size {
		case 1:
			b.BinI(isa.ANDI, isa.EAX, 0xFF)
		case 2:
			b.BinI(isa.ANDI, isa.EAX, 0xFFFF)
		}
		c.store(v, isa.EAX)

	case ir.OpCmp:
		if c.fused[v] {
			return nil
		}
		c.emitCmp(v)
		b.Set(v.Cond, isa.EAX)
		c.store(v, isa.EAX)

	case ir.OpLoad:
		m := c.memOperand(v.Args[0], isa.ECX)
		dst := isa.EAX
		if hv := c.homes[v]; hv.inReg {
			dst = hv.reg
		}
		b.Load(dst, m, v.Size, v.Signed)
		if dst == isa.EAX {
			c.store(v, isa.EAX)
		}

	case ir.OpStore:
		m := c.memOperand(v.Args[0], isa.ECX)
		if k := v.Args[1]; k.Op == ir.OpConst {
			b.StoreI(m, k.Const, v.Size)
			return nil
		}
		// The address may be held in EAX (fusion) or ECX (scratch); the
		// value goes through EDX, which neither path touches.
		src := c.operand(v.Args[1], isa.EDX)
		b.Store(m, src, v.Size)

	case ir.OpCall:
		c.emitCall(v, func() { b.Call(fnLabel(v.Callee)) }, v.Args)
	case ir.OpCallInd:
		return c.emitCallInd(v)
	case ir.OpCallExt:
		c.emitCall(v, func() { b.CallExt(v.Sym) }, v.Args)
	case ir.OpCallExtRaw:
		// BinRec stack switching: point the native stack pointer at the
		// emulated argument area for the duration of the call.
		base := c.operand(v.Args[0], isa.ECX)
		b.Mov(isa.EDX, isa.ESP)
		if base != isa.ECX {
			b.Mov(isa.ECX, base)
		}
		b.Mov(isa.ESP, isa.ECX)
		b.CallExt(v.Sym)
		b.Mov(isa.ESP, isa.EDX)
		c.spreadResults(v)

	case ir.OpJmp:
		if bi+1 >= len(c.order) || c.order[bi+1] != blk.Succs[0] {
			b.Jmp(c.blockLbl[blk.Succs[0]])
		}
	case ir.OpBr:
		cond := v.Args[0]
		if cond.Op == ir.OpCmp && c.fused[cond] {
			c.emitCmp(cond)
			b.Jcc(cond.Cond, c.blockLbl[blk.Succs[0]])
		} else {
			r := c.operand(cond, isa.EAX)
			b.CmpI(r, 0)
			b.Jcc(isa.CondNE, c.blockLbl[blk.Succs[0]])
		}
		if bi+1 >= len(c.order) || c.order[bi+1] != blk.Succs[1] {
			b.Jmp(c.blockLbl[blk.Succs[1]])
		}
	case ir.OpSwitch:
		r := c.operand(v.Args[0], isa.EAX)
		if r != isa.EAX {
			b.Mov(isa.EAX, r)
		}
		for i, cs := range v.Cases {
			b.CmpI(isa.EAX, int32(cs.Val))
			b.Jcc(isa.CondEQ, c.blockLbl[blk.Succs[i]])
		}
		b.Jmp(c.blockLbl[blk.Succs[len(v.Cases)]])
	case ir.OpRet:
		for i := 1; i < len(v.Args); i++ {
			r := c.operand(v.Args[i], isa.EAX)
			b.StoreSym("__retbuf", int32(4*i), r, 4)
		}
		if len(v.Args) > 0 {
			c.intoEAX(v.Args[0])
		}
		b.Jmp(c.epilogue)
	case ir.OpTrap:
		c.emitStub()
	default:
		return fmt.Errorf("cannot lower %s", v.Op)
	}
	return nil
}

// emitStub emits a trap stub (exit 254), planting a "__stub$" symbol on it
// so the runtime can attribute the trap to its owning function (the
// stub-hit counter behind the coverage report).
func (c *fnCG) emitStub() {
	b := c.b()
	b.Func(fmt.Sprintf("__stub$%s$%d", c.f.Name, c.stubs))
	c.stubs++
	b.MovI(isa.EAX, 254)
	b.Halt()
}

// emitCall pushes args right-to-left, performs the call, cleans the stack,
// and spreads the results.
func (c *fnCG) emitCall(v *ir.Value, doCall func(), args []*ir.Value) {
	b := c.b()
	for i := len(args) - 1; i >= 0; i-- {
		a := args[i]
		if a.Op == ir.OpConst {
			c.pushI(a.Const)
			continue
		}
		r := c.operand(a, isa.EAX)
		c.push(r)
	}
	doCall()
	if n := int32(4 * len(args)); n > 0 {
		b.BinI(isa.ADDI, isa.ESP, n)
		c.pushDepth -= n
	}
	c.spreadResults(v)
}

// spreadResults copies the call's tuple into the extract homes: result 0
// from EAX, the rest from the return buffer.
func (c *fnCG) spreadResults(v *ir.Value) {
	b := c.b()
	for _, ex := range c.callExtracts[v] {
		if _, ok := c.homes[ex]; !ok {
			continue
		}
		if ex.Idx == 0 {
			c.store(ex, isa.EAX)
		} else {
			b.LoadSym(isa.ECX, "__retbuf", int32(4*ex.Idx), 4, false)
			c.store(ex, isa.ECX)
		}
	}
}

// emitCallInd dispatches on the original target address.
func (c *fnCG) emitCallInd(v *ir.Value) error {
	b := c.b()
	if len(v.Targets) == 0 {
		return fmt.Errorf("indirect call without targets")
	}
	// Target into EDX (survives the pushes).
	t := c.operand(v.Args[0], isa.EDX)
	if t != isa.EDX {
		b.Mov(isa.EDX, t)
	}
	args := v.Args[1:]
	for i := len(args) - 1; i >= 0; i-- {
		a := args[i]
		if a.Op == ir.OpConst {
			c.pushI(a.Const)
			continue
		}
		r := c.operand(a, isa.EAX)
		c.push(r)
	}
	join := c.g.newLabel("icall_join")
	for i, tgt := range v.Targets {
		b.CmpI(isa.EDX, int32(tgt.Addr))
		lbl := c.g.newLabel(fmt.Sprintf("icall_%d", i))
		b.Jcc(isa.CondNE, lbl)
		b.Call(fnLabel(tgt))
		b.Jmp(join)
		b.Label(lbl)
	}
	// Untraced target: trap.
	c.emitStub()
	b.Label(join)
	if n := int32(4 * len(args)); n > 0 {
		b.BinI(isa.ADDI, isa.ESP, n)
		c.pushDepth -= n
	}
	c.spreadResults(v)
	return nil
}
