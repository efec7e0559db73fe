// Package lifter translates traced machine code into the compiler-level IR,
// the analogue of BinRec's RevGen-based LLVM translator (§2.1 and §5 of the
// paper). The lifted program has the BinRec shape the refinements start
// from:
//
//   - every lifted function takes the full register file as parameters and
//     returns the full register file (nothing is known yet about arguments
//     or saved registers);
//   - the original program's stack lives in emulated memory addressed
//     through the virtual ESP (the emulated stack of Figure 1);
//   - calls push a return-address constant and callees pop it, preserving
//     the original frame layout byte for byte;
//   - calls to known external functions are lifted with explicit arguments
//     loaded from the emulated stack; variadic externals use the raw
//     stack-switching form (OpCallExtRaw) until the varargs refinement
//     recovers their call-site signatures;
//   - paths never observed during tracing end in traps (what you trace is
//     what you get).
package lifter

import (
	"fmt"

	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/par"
	"wytiwyg/internal/tracer"
)

// EmuStackSize is the size of the emulated-stack region in recompiled
// binaries.
const EmuStackSize = 1 << 20

// LiftJobs translates every recovered function over a bounded worker
// pool: function skeletons are created sequentially in recovery order
// (which fixes the module's print order and call-target identity), then
// each function body is lifted in parallel. A fnLift only reads the shared CFG/recovery maps and writes
// its own function — value IDs are per function — so the lifted module is
// byte-identical at every worker count.
func LiftJobs(img *obj.Image, cfg *tracer.CFG, rec *funcrec.Result, jobs int) (*ir.Module, error) {
	mod := ir.NewModule(img.Name)
	mod.Data = img.Data
	mod.EmuStackSize = EmuStackSize
	// Create all functions first so calls can reference them.
	for _, mf := range rec.Funcs {
		mod.NewFunc(mf.Name, mf.Entry)
	}
	err := par.ForEach(jobs, len(rec.Funcs), func(i int) error {
		mf := rec.Funcs[i]
		fl := &fnLift{
			img: img, cfg: cfg, rec: rec, mod: mod,
			mf: mf, f: mod.FuncAt(mf.Entry),
		}
		if err := fl.lift(); err != nil {
			return fmt.Errorf("lifter: %s: %w", mf.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mod.Entry = mod.FuncAt(img.Entry)
	if mod.Entry == nil {
		return nil, fmt.Errorf("lifter: entry function not lifted")
	}
	if err := ir.Verify(mod); err != nil {
		return nil, err
	}
	return mod, nil
}

type flagState struct {
	valid  bool
	isTest bool
	a, b   *ir.Value
}

type fnLift struct {
	img *obj.Image
	cfg *tracer.CFG
	rec *funcrec.Result
	mod *ir.Module
	mf  *funcrec.Function
	f   *ir.Func

	blocks     map[uint32]*ir.Block
	mpreds     map[uint32][]uint32
	defs       map[*ir.Block]*[isa.NumRegs]*ir.Value
	flags      map[*ir.Block]*flagState
	sealed     map[*ir.Block]bool
	filled     map[*ir.Block]bool
	incomplete map[*ir.Block]map[isa.Reg]*ir.Value
	trapBlk    *ir.Block
}

func (l *fnLift) lift() error {
	l.f.NumRet = isa.NumRegs
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		l.f.NewParam(r, r.String())
		l.f.RetRegs = append(l.f.RetRegs, r)
	}
	l.blocks = make(map[uint32]*ir.Block)
	l.mpreds = make(map[uint32][]uint32)
	l.defs = make(map[*ir.Block]*[isa.NumRegs]*ir.Value)
	l.flags = make(map[*ir.Block]*flagState)
	l.sealed = make(map[*ir.Block]bool)
	l.filled = make(map[*ir.Block]bool)
	l.incomplete = make(map[*ir.Block]map[isa.Reg]*ir.Value)

	// Synthetic entry: params live here; it jumps to the machine entry
	// block (which may be a loop target and so can have predecessors).
	entry := l.f.NewBlock(0)
	l.defs[entry] = new([isa.NumRegs]*ir.Value)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		l.defs[entry][r] = l.f.Params[r]
	}
	l.sealed[entry] = true
	l.filled[entry] = true

	for _, a := range l.mf.Blocks {
		b := l.f.NewBlock(a)
		l.blocks[a] = b
		l.defs[b] = new([isa.NumRegs]*ir.Value)
		l.flags[b] = &flagState{}
	}
	// Machine-level predecessor edges (intra-procedural only).
	for _, a := range l.mf.Blocks {
		mb := l.cfg.Blocks[a]
		if l.cfg.TailJumps[mb.End] {
			continue
		}
		for _, s := range mb.Succs {
			if l.rec.Owner[s] == l.mf {
				l.mpreds[s] = append(l.mpreds[s], a)
			}
		}
	}
	l.mpreds[l.mf.Entry] = append(l.mpreds[l.mf.Entry], 0) // synthetic entry edge
	l.link(entry, l.blocks[l.mf.Entry])
	entry.Append(l.f.NewValue(ir.OpJmp))

	// Fill in reverse post order; seal once every predecessor is filled.
	order := l.rpo()
	l.trySeal()
	for _, a := range order {
		if err := l.fillBlock(a); err != nil {
			return err
		}
		l.trySeal()
	}
	// Any block never sealed indicates an unfilled predecessor (should not
	// happen: rpo covers the body).
	for _, b := range l.f.Blocks {
		if !l.sealed[b] {
			return fmt.Errorf("block at 0x%x never sealed", b.Addr)
		}
	}
	l.fixPhiOrder()
	return nil
}

// fixPhiOrder permutes phi arguments from machine-predecessor order (the
// order SSA construction used) into the order of each block's IR Preds list
// (the order the interpreter and later passes rely on).
func (l *fnLift) fixPhiOrder() {
	for _, b := range l.f.Blocks {
		if len(b.Phis) == 0 {
			continue
		}
		mp := l.predBlocks(b)
		perm := make([]int, len(b.Preds))
		for i, p := range b.Preds {
			perm[i] = -1
			for j, q := range mp {
				if q == p {
					perm[i] = j
					break
				}
			}
		}
		for _, phi := range b.Phis {
			old := phi.Args
			args := make([]*ir.Value, len(b.Preds))
			for i, j := range perm {
				if j >= 0 && j < len(old) {
					args[i] = old[j]
				}
			}
			phi.Args = args
		}
	}
}

// rpo orders the machine blocks of the function in reverse post order over
// intra-procedural edges.
func (l *fnLift) rpo() []uint32 {
	visited := map[uint32]bool{}
	var order []uint32
	var dfs func(a uint32)
	dfs = func(a uint32) {
		if visited[a] || l.blocks[a] == nil {
			return
		}
		visited[a] = true
		mb := l.cfg.Blocks[a]
		if !l.cfg.TailJumps[mb.End] {
			for _, s := range mb.Succs {
				if l.rec.Owner[s] == l.mf {
					dfs(s)
				}
			}
		}
		order = append(order, a)
	}
	dfs(l.mf.Entry)
	// Include any stragglers (unreachable bodies should not exist, but be
	// safe).
	for _, a := range l.mf.Blocks {
		dfs(a)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func (l *fnLift) trySeal() {
	// Iterate the function's block list, not the address map: sealing can
	// allocate values (transitive phis), so the order must be deterministic
	// for value numbering to be reproducible across runs.
	for _, a := range l.mf.Blocks {
		b := l.blocks[a]
		if l.sealed[b] {
			continue
		}
		ok := true
		for _, p := range l.mpreds[a] {
			var pb *ir.Block
			if p == 0 {
				pb = l.f.Blocks[0]
			} else {
				pb = l.blocks[p]
			}
			if !l.filled[pb] {
				ok = false
				break
			}
		}
		if ok {
			l.seal(b)
		}
	}
}

func (l *fnLift) predBlocks(b *ir.Block) []*ir.Block {
	var out []*ir.Block
	for _, p := range l.mpreds[b.Addr] {
		if p == 0 {
			out = append(out, l.f.Blocks[0])
		} else {
			out = append(out, l.blocks[p])
		}
	}
	return out
}

func (l *fnLift) seal(b *ir.Block) {
	// Complete pending phis in register order (not map order): operand
	// lookup can allocate values recursively, and value numbering must not
	// depend on map iteration.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if phi, ok := l.incomplete[b][r]; ok {
			l.addPhiOperands(b, r, phi)
		}
	}
	delete(l.incomplete, b)
	l.sealed[b] = true
}

func (l *fnLift) writeVar(b *ir.Block, r isa.Reg, v *ir.Value) {
	l.defs[b][r] = v
}

func (l *fnLift) readVar(b *ir.Block, r isa.Reg) *ir.Value {
	if v := l.defs[b][r]; v != nil {
		return v
	}
	return l.readVarRecursive(b, r)
}

func (l *fnLift) readVarRecursive(b *ir.Block, r isa.Reg) *ir.Value {
	var v *ir.Value
	preds := l.predBlocks(b)
	switch {
	case !l.sealed[b]:
		v = l.f.NewValue(ir.OpPhi)
		v.RegHint = r
		b.AddPhi(v)
		if l.incomplete[b] == nil {
			l.incomplete[b] = make(map[isa.Reg]*ir.Value)
		}
		l.incomplete[b][r] = v
	case len(preds) == 1:
		v = l.readVar(preds[0], r)
	case len(preds) == 0:
		// Unreachable read; only the synthetic entry has no preds and it is
		// prefilled with params.
		panic(fmt.Sprintf("lifter: read of %s in block with no predecessors", r))
	default:
		v = l.f.NewValue(ir.OpPhi)
		v.RegHint = r
		b.AddPhi(v)
		l.writeVar(b, r, v) // break cycles
		l.addPhiOperands(b, r, v)
	}
	l.writeVar(b, r, v)
	return v
}

func (l *fnLift) addPhiOperands(b *ir.Block, r isa.Reg, phi *ir.Value) {
	for _, p := range l.predBlocks(b) {
		phi.AddArg(l.readVar(p, r))
	}
}

// link adds a CFG edge. Successor slots may repeat (switch cases sharing a
// target); predecessor lists are kept duplicate-free so that phi arguments
// map one-to-one onto them.
func (l *fnLift) link(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	for _, p := range to.Preds {
		if p == from {
			return
		}
	}
	to.Preds = append(to.Preds, from)
}

// trap returns the function's shared trap block.
func (l *fnLift) trap() *ir.Block {
	if l.trapBlk == nil {
		l.trapBlk = l.f.NewBlock(0)
		l.trapBlk.Append(l.f.NewValue(ir.OpTrap))
		l.sealed[l.trapBlk] = true
		l.filled[l.trapBlk] = true
	}
	return l.trapBlk
}

func (l *fnLift) konst(b *ir.Block, v int32) *ir.Value {
	c := l.f.NewValue(ir.OpConst)
	c.Const = v
	b.Append(c)
	return c
}

func (l *fnLift) emit(b *ir.Block, op ir.Op, args ...*ir.Value) *ir.Value {
	v := l.f.NewValue(op, args...)
	b.Append(v)
	return v
}

// addr lowers a memory operand to an address value. The constant
// displacement folds into the base FIRST, so that base+disp forms the
// direct stack reference (the paper's "%ebp-44" in -44(%ebp,%eax,8)) and
// the scaled index derives from it dynamically.
func (l *fnLift) addr(b *ir.Block, m isa.MemRef) *ir.Value {
	var v *ir.Value
	if m.HasBase() {
		v = l.readVar(b, m.Base)
		if m.Disp != 0 {
			v = l.emit(b, ir.OpAdd, v, l.konst(b, m.Disp))
		}
	}
	if m.HasIndex() {
		idx := l.readVar(b, m.Index)
		if m.Scale > 1 {
			idx = l.emit(b, ir.OpMul, idx, l.konst(b, int32(m.Scale)))
		}
		if v == nil {
			v = idx
			if m.Disp != 0 {
				v = l.emit(b, ir.OpAdd, v, l.konst(b, m.Disp))
			}
		} else {
			v = l.emit(b, ir.OpAdd, v, idx)
		}
	}
	if v == nil {
		return l.konst(b, m.Disp)
	}
	return v
}

// condValue materializes the current flags as a 0/1 value under cond.
func (l *fnLift) condValue(b *ir.Block, cond isa.Cond) (*ir.Value, error) {
	fs := l.flags[b]
	if fs == nil || !fs.valid {
		return nil, fmt.Errorf("condition used without flags set in block 0x%x", b.Addr)
	}
	a, bb := fs.a, fs.b
	if fs.isTest {
		a = l.emit(b, ir.OpAnd, a, bb)
		bb = l.konst(b, 0)
	}
	v := l.emit(b, ir.OpCmp, a, bb)
	v.Cond = cond
	return v, nil
}
