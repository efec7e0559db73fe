package irexec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// Program is the compiled form of one module state. Each function is
// compiled on its first activation and the code is then shared, read-only,
// by every interpreter of the Program, which may run concurrently. Nothing
// invalidates compiled code: a Program is built for one execution of the
// module (one refinement replay over all its inputs), and the module must
// not change while any interpreter of the Program runs. A refinement that
// rewrites the module builds a new Program for its next replay.
//
// A Program built with an Observer compiles each function's Actions into
// its sites: Act fires only at the instructions and phi moves whose
// action is not Skip, with the operands resolved. Without one, every
// instruction and phi move has the Generic action.
//
// Each function has a dense index in the Program (Frame.FnIndex): its
// position in Module.Funcs, then the entry if Funcs misses it, then the
// functions reached only through calls, in the order the Program first
// met them.
type Program struct {
	mod *ir.Module
	obs Observer // nil: the Generic action everywhere
	// fns holds an entry for every function of the module; it is
	// read-only after NewProgram.
	fns map[*ir.Func]*fnCode
	// mu serializes compilation and guards extra, the entries of
	// functions reachable from the module but missing from Module.Funcs.
	mu    sync.Mutex
	extra map[*ir.Func]*fnCode
}

// fnCode is one function's slot in a Program: its index and its compiled
// code, nil until the first activation.
type fnCode struct {
	fn    *ir.Func
	index int
	code  atomic.Pointer[code]
}

// NewProgram prepares mod for execution under the actions of obs, which
// may be nil (the Generic action everywhere). It compiles nothing yet.
func NewProgram(mod *ir.Module, obs Observer) *Program {
	p := &Program{mod: mod, obs: obs, fns: make(map[*ir.Func]*fnCode, len(mod.Funcs)+1)}
	for _, f := range mod.Funcs {
		if p.fns[f] == nil {
			p.fns[f] = &fnCode{fn: f, index: len(p.fns)}
		}
	}
	if f := mod.Entry; f != nil && p.fns[f] == nil {
		p.fns[f] = &fnCode{fn: f, index: len(p.fns)}
	}
	return p
}

// entry returns f's slot.
func (p *Program) entry(f *ir.Func) *fnCode {
	if e := p.fns[f]; e != nil {
		return e
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entryLocked(f)
}

// entryLocked is entry for callers holding p.mu.
func (p *Program) entryLocked(f *ir.Func) *fnCode {
	if e := p.fns[f]; e != nil {
		return e
	}
	e := p.extra[f]
	if e == nil {
		if p.extra == nil {
			p.extra = make(map[*ir.Func]*fnCode)
		}
		e = &fnCode{fn: f, index: len(p.fns) + len(p.extra)}
		p.extra[f] = e
	}
	return e
}

// code returns e's compiled code, compiling it on first use.
func (p *Program) code(e *fnCode) *code {
	if c := e.code.Load(); c != nil {
		return c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := e.code.Load(); c != nil {
		return c
	}
	c := p.compile(e.fn)
	c.index = e.index
	e.code.Store(c)
	return c
}

// op is a compiled instruction's operation. Most mirror an ir.Op; widening
// conversions are split by width, and opBad stands for every instruction
// the interpreter cannot execute.
type op uint8

const (
	opBad op = iota // reports code.errs[x]
	opConst
	opSP0
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opXor
	opShl
	opShr
	opSar
	opNeg
	opNot
	opSubreg8
	opMov // a full-width sext or zext
	opSext8
	opSext16
	opZext8
	opZext16
	opCmp
	opLoad
	opStore
	opAlloca
	opCall
	opCallInd
	opCallExt
	opCallExtRaw
	opExtract
	opJmp
	opBr
	opSwitch
	opRet
	opTrap
)

// flags are a compiled instruction's boolean attributes.
type flags uint8

const (
	flagSigned flags = 1 << iota // sign-extending load
	flagHook                     // its site's action is not Skip: Act fires
)

// inst is one compiled instruction. Operands are register-file indices:
// a value's Slot, or an index into the constant area behind the slots.
// It is 40 bytes; the flags share the first word with the opcode, width
// and condition. Its site, with the source instruction, is at the same
// index in code.sites.
type inst struct {
	op    op
	size  uint8    // memory access width
	flags flags    // flagSigned, flagHook
	cond  isa.Cond // comparison condition
	dst   uint32   // the result register: the value's slot
	a, b  uint32   // the first two operand registers
	// ops and n locate every operand register in code.ops, for the
	// tracer's argument slice and for calls and returns.
	ops, n uint32
	// x and y are op-specific immediates:
	//   opConst        x = the constant
	//   opAlloca       x = the rounded size, y = the alignment
	//   opCall*        x = the tuple offset, y = the tuple width
	//   opCallExt*     x = the tuple offset
	//   opExtract      x = the tuple word
	//   opJmp, opBr    x = the first outgoing edge (opBr: taken, then not)
	//   opSwitch       x = the first outgoing edge (one per case, then
	//                  the default), y = the offset of the b case values
	//                  in code.cases
	//   opBad          x = the index of the error in code.errs
	x, y   uint32
	callee *fnCode // opCall's target
}

// edge is one control-flow edge: the target's first instruction and the
// phi moves taking the edge performs.
type edge struct {
	pc uint32
	// n is the number of phi moves at code.moves[mv:]; -1 means taking
	// the edge fails with code.errs[mv].
	n  int32
	mv uint32
}

// move is one phi assignment of an edge: register src into the phi's
// slot dst. Its site is at the same index in code.msites.
type move struct {
	dst, src uint32
	hook     bool // its site's action is not Skip: Act fires
}

// code is one compiled function.
type code struct {
	fn    *ir.Func
	index int // the function's index in the Program (Frame.FnIndex)
	// nslots and tupleWords are the function's dense layout totals;
	// maxArgs and maxPhis size the per-frame scratch buffers.
	nslots, tupleWords int
	maxArgs, maxPhis   int
	// consts is the constant area, copied behind the value slots of every
	// activation's register file.
	consts []uint32
	// params holds the parameter slots in signature order; espParam is the
	// index of the (last) ESP parameter, -1 if none.
	params   []uint32
	espParam int
	insts    []inst
	sites    []Site // by instruction
	ops      []uint32
	// edges[0] enters the entry block.
	edges  []edge
	moves  []move
	msites []Site // by move
	cases  []uint32
	errs   []error
}

// compiler carries the state of one function's compilation.
type compiler struct {
	p      *Program
	c      *code
	acts   Actions           // nil: the Generic action everywhere
	consts map[uint32]uint32 // constant value -> register
	start  map[*ir.Block]uint32
}

// compile translates f into its flat form. Blocks keep their Func.Blocks
// order, followed by any block reachable only through successor lists.
// Constructs the interpreter cannot execute (unknown ops, missing operands
// or successors, phis without an incoming value for an edge) compile to
// instructions or edges that fail with an error when reached, so the
// failure surfaces exactly where a walk of the IR would meet it.
func (p *Program) compile(f *ir.Func) *code {
	f.EnsureLayout()
	lay := f.Layout()
	c := &code{fn: f, nslots: lay.NumSlots, tupleWords: lay.TupleWords, espParam: -1}
	k := &compiler{p: p, c: c, consts: make(map[uint32]uint32), start: make(map[*ir.Block]uint32)}
	if p.obs != nil {
		k.acts = p.obs.Observes(f)
	}
	for i, prm := range f.Params {
		c.params = append(c.params, uint32(prm.Slot()))
		if prm.RegHint == isa.ESP {
			c.espParam = i
		}
	}
	c.maxArgs = len(f.Params)

	blocks := append([]*ir.Block(nil), f.Blocks...)
	seen := make(map[*ir.Block]bool, len(blocks))
	for _, b := range blocks {
		seen[b] = true
	}
	for i := 0; i < len(blocks); i++ {
		for _, s := range blocks[i].Succs {
			if s != nil && !seen[s] {
				seen[s] = true
				blocks = append(blocks, s)
			}
		}
	}
	pc := uint32(0)
	for _, b := range blocks {
		k.start[b] = pc
		pc += uint32(len(b.Insts))
		if fallsOff(b) {
			pc++
		}
	}

	if len(blocks) == 0 {
		c.edges = append(c.edges, edge{})
		k.add(k.bad(fmt.Errorf("irexec: %s: function has no blocks", f.Name)), nil)
	} else {
		c.edges = append(c.edges, k.edge(nil, f.Blocks[0]))
	}
	for _, b := range blocks {
		for _, v := range b.Insts {
			k.add(k.inst(b, v), v)
		}
		if fallsOff(b) {
			k.add(k.bad(fmt.Errorf("irexec: %s: b%d falls off its end", f.Name, b.ID)), nil)
		}
	}
	return c
}

// add appends the compiled instruction in of v (nil for an instruction
// without a source) and its site.
func (k *compiler) add(in inst, v *ir.Value) {
	s := Site{V: v}
	if in.op != opBad {
		s = SiteOf(v)
		if k.acts != nil {
			s.Act, s.Imm = k.acts.Exec(v)
		}
		if s.Act != Skip {
			in.flags |= flagHook
		}
	}
	k.c.insts = append(k.c.insts, in)
	k.c.sites = append(k.c.sites, s)
}

// fallsOff reports whether control can run past b's last instruction.
func fallsOff(b *ir.Block) bool {
	return len(b.Insts) == 0 || !b.Insts[len(b.Insts)-1].Op.IsTerm()
}

// reg returns the register holding v's value, or false when v has none: a
// nil operand or a value outside the function's layout.
func (k *compiler) reg(v *ir.Value) (uint32, bool) {
	if v == nil {
		return 0, false
	}
	if v.Op == ir.OpConst {
		val := uint32(v.Const)
		r, ok := k.consts[val]
		if !ok {
			r = uint32(k.c.nslots + len(k.c.consts))
			k.c.consts = append(k.c.consts, val)
			k.consts[val] = r
		}
		return r, true
	}
	if s := v.Slot(); s >= 0 && s < k.c.nslots {
		return uint32(s), true
	}
	return 0, false
}

// bad returns an instruction that fails with err.
func (k *compiler) bad(err error) inst {
	k.c.errs = append(k.c.errs, err)
	return inst{op: opBad, x: uint32(len(k.c.errs) - 1)}
}

// arity is the operand count each executable op needs at least.
var arity = [ir.NumOps]int{
	ir.OpAdd: 2, ir.OpSub: 2, ir.OpMul: 2, ir.OpDiv: 2, ir.OpMod: 2,
	ir.OpAnd: 2, ir.OpOr: 2, ir.OpXor: 2, ir.OpShl: 2, ir.OpShr: 2, ir.OpSar: 2,
	ir.OpNeg: 1, ir.OpNot: 1, ir.OpCmp: 2, ir.OpSubreg8: 2, ir.OpSext: 1, ir.OpZext: 1,
	ir.OpLoad: 1, ir.OpStore: 2, ir.OpCallInd: 1, ir.OpCallExtRaw: 1, ir.OpExtract: 1,
	ir.OpBr: 1, ir.OpSwitch: 1,
}

// binOps maps the two-operand ALU ops.
var binOps = map[ir.Op]op{
	ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul, ir.OpDiv: opDiv, ir.OpMod: opMod,
	ir.OpAnd: opAnd, ir.OpOr: opOr, ir.OpXor: opXor, ir.OpShl: opShl, ir.OpShr: opShr,
	ir.OpSar: opSar, ir.OpSubreg8: opSubreg8, ir.OpCmp: opCmp,
}

// inst compiles one instruction of block b.
func (k *compiler) inst(b *ir.Block, v *ir.Value) inst {
	c, name := k.c, k.c.fn.Name
	in := inst{dst: uint32(v.Slot()), ops: uint32(len(c.ops)), n: uint32(len(v.Args))}
	if s := v.Slot(); s < 0 || s >= c.nslots {
		return k.bad(fmt.Errorf("irexec: %s: %s has no slot", name, v))
	}
	for i, a := range v.Args {
		r, ok := k.reg(a)
		if !ok {
			c.ops = c.ops[:in.ops]
			return k.bad(fmt.Errorf("irexec: %s: operand %d of %s is not executable", name, i, v))
		}
		c.ops = append(c.ops, r)
	}
	if len(v.Args) < arity[v.Op] {
		return k.bad(fmt.Errorf("irexec: %s: %s %s has %d operands", name, v.Op, v, len(v.Args)))
	}
	c.maxArgs = max(c.maxArgs, len(v.Args))
	if len(v.Args) > 0 {
		in.a = c.ops[in.ops]
	}
	if len(v.Args) > 1 {
		in.b = c.ops[in.ops+1]
	}
	if o, ok := binOps[v.Op]; ok {
		in.op, in.cond = o, v.Cond
		return in
	}
	switch v.Op {
	case ir.OpConst:
		in.op, in.x = opConst, uint32(v.Const)
	case ir.OpSP0:
		in.op = opSP0
	case ir.OpNeg:
		in.op = opNeg
	case ir.OpNot:
		in.op = opNot
	case ir.OpSext, ir.OpZext:
		in.op = opMov
		switch {
		case v.Size == 1 && v.Op == ir.OpSext:
			in.op = opSext8
		case v.Size == 2 && v.Op == ir.OpSext:
			in.op = opSext16
		case v.Size == 1:
			in.op = opZext8
		case v.Size == 2:
			in.op = opZext16
		}
	case ir.OpLoad:
		in.op, in.size = opLoad, v.Size
		if v.Signed {
			in.flags |= flagSigned
		}
	case ir.OpStore:
		in.op, in.size = opStore, v.Size
	case ir.OpAlloca:
		in.op, in.x, in.y = opAlloca, (v.AllocSize+3)&^3, max(v.Align, 4)
	case ir.OpCall, ir.OpCallInd:
		in.op = opCall
		if v.Op == ir.OpCallInd {
			in.op = opCallInd
		} else if v.Callee == nil {
			return k.bad(fmt.Errorf("irexec: %s: call %s has no callee", name, v))
		} else {
			in.callee = k.p.entryLocked(v.Callee)
		}
		if w, off := v.TupleWidth(), v.TupleOff(); w > 0 && off >= 0 {
			in.x, in.y = uint32(off), uint32(w)
		}
	case ir.OpCallExt, ir.OpCallExtRaw:
		in.op = opCallExt
		if v.Op == ir.OpCallExtRaw {
			in.op = opCallExtRaw
		}
		if v.TupleOff() < 0 {
			return k.bad(fmt.Errorf("irexec: %s: %s has no tuple", name, v))
		}
		in.x = uint32(v.TupleOff())
	case ir.OpExtract:
		call := v.Args[0]
		w, off := call.TupleWidth(), call.TupleOff()
		if w == 0 || off < 0 {
			w = 0
		}
		if v.Idx < 0 || v.Idx >= w {
			return k.bad(fmt.Errorf("irexec: %s: extract %d of %d-tuple", name, v.Idx, w))
		}
		in.op, in.x = opExtract, uint32(off+v.Idx)
	case ir.OpJmp:
		in.op, in.x = opJmp, k.edges(b, 1)
	case ir.OpBr:
		in.op, in.x = opBr, k.edges(b, 2)
	case ir.OpSwitch:
		in.op, in.x = opSwitch, k.edges(b, len(v.Cases)+1)
		in.y, in.b = uint32(len(c.cases)), uint32(len(v.Cases))
		for _, cs := range v.Cases {
			c.cases = append(c.cases, cs.Val)
		}
	case ir.OpRet:
		in.op = opRet
	case ir.OpTrap:
		in.op = opTrap
	default:
		return k.bad(fmt.Errorf("irexec: %s: cannot execute %s", name, v.Op))
	}
	return in
}

// edges compiles b's first n successor edges, contiguously, and returns
// the index of the first.
func (k *compiler) edges(b *ir.Block, n int) uint32 {
	first := uint32(len(k.c.edges))
	for i := 0; i < n; i++ {
		if i >= len(b.Succs) || b.Succs[i] == nil {
			k.c.edges = append(k.c.edges, k.errEdge(fmt.Errorf("irexec: %s: b%d has no successor %d", k.c.fn.Name, b.ID, i)))
			continue
		}
		k.c.edges = append(k.c.edges, k.edge(b, b.Succs[i]))
	}
	return first
}

// edge compiles the edge prev->b (prev is nil for the function entry):
// b's phis select their incoming values by prev's first position in
// b.Preds.
func (k *compiler) edge(prev, b *ir.Block) edge {
	c := k.c
	e := edge{pc: k.start[b], mv: uint32(len(c.moves))}
	if len(b.Phis) == 0 {
		return e
	}
	idx := -1
	for i, pb := range b.Preds {
		if pb == prev {
			idx = i
			break
		}
	}
	if idx < 0 {
		return k.errEdge(fmt.Errorf("irexec: %s: edge b%d->b%d unknown", c.fn.Name, blockID(prev), b.ID))
	}
	for _, phi := range b.Phis {
		if s := phi.Slot(); s < 0 || s >= c.nslots {
			c.moves, c.msites = c.moves[:e.mv], c.msites[:e.mv]
			return k.errEdge(fmt.Errorf("irexec: %s: %s has no slot", c.fn.Name, phi))
		}
		var in *ir.Value
		if idx < len(phi.Args) {
			in = phi.Args[idx]
		}
		src, ok := k.reg(in)
		if !ok {
			c.moves, c.msites = c.moves[:e.mv], c.msites[:e.mv]
			return k.errEdge(fmt.Errorf("irexec: %s: phi %s missing arg %d", c.fn.Name, phi, idx))
		}
		s := PhiSite(phi, in)
		if k.acts != nil {
			s.Act, s.Imm = k.acts.Phi(phi, in)
		}
		c.moves = append(c.moves, move{dst: uint32(phi.Slot()), src: src, hook: s.Act != Skip})
		c.msites = append(c.msites, s)
	}
	e.n = int32(len(b.Phis))
	c.maxPhis = max(c.maxPhis, len(b.Phis))
	return e
}

// errEdge returns an edge whose traversal fails with err.
func (k *compiler) errEdge(err error) edge {
	k.c.errs = append(k.c.errs, err)
	return edge{n: -1, mv: uint32(len(k.c.errs) - 1)}
}

func blockID(b *ir.Block) int {
	if b == nil {
		return -1
	}
	return b.ID
}
