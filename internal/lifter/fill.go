package lifter

import (
	"fmt"

	"wytiwyg/internal/extdb"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/tracer"
)

// fillBlock lifts the instructions of one machine block.
func (l *fnLift) fillBlock(start uint32) error {
	b := l.blocks[start]
	if b == nil || l.filled[b] {
		return nil
	}
	mb := l.cfg.Blocks[start]
	pc := start
	for {
		in, err := l.img.InstrAt(pc)
		if err != nil {
			return err
		}
		if in.Op.IsControl() {
			if err := l.liftControl(b, mb, pc, in); err != nil {
				return fmt.Errorf("at 0x%x (%s): %w", pc, in, err)
			}
			break
		}
		if err := l.liftPlain(b, pc, in); err != nil {
			return fmt.Errorf("at 0x%x (%s): %w", pc, in, err)
		}
		if pc == mb.End {
			// Fall through into the next block.
			succ := l.blocks[mb.Succs[0]]
			l.link(b, succ)
			l.emit(b, ir.OpJmp)
			break
		}
		pc += isa.InstrSize
	}
	l.filled[b] = true
	return nil
}

var binOpFor = map[isa.Op]ir.Op{
	isa.ADD: ir.OpAdd, isa.SUB: ir.OpSub, isa.AND: ir.OpAnd, isa.OR: ir.OpOr,
	isa.XOR: ir.OpXor, isa.SHL: ir.OpShl, isa.SHR: ir.OpShr, isa.SAR: ir.OpSar,
	isa.MUL: ir.OpMul, isa.DIV: ir.OpDiv, isa.MOD: ir.OpMod,
}

// liftPlain lowers a non-control instruction.
func (l *fnLift) liftPlain(b *ir.Block, pc uint32, in *isa.Instr) error {
	fs := l.flags[b]
	switch {
	case in.Op == isa.NOP:

	case in.Op == isa.MOV:
		l.writeVar(b, in.Dst, l.readVar(b, in.Src))
	case in.Op == isa.MOVI:
		l.writeVar(b, in.Dst, l.konst(b, in.Imm))
	case in.Op == isa.MOVLO8:
		old := l.readVar(b, in.Dst)
		src := l.readVar(b, in.Src)
		l.writeVar(b, in.Dst, l.emit(b, ir.OpSubreg8, old, src))
	case in.Op == isa.LOAD:
		a := l.addr(b, in.Mem)
		v := l.emit(b, ir.OpLoad, a)
		v.Size = in.Size
		v.Signed = in.Signed
		l.writeVar(b, in.Dst, v)
	case in.Op == isa.LOADLO8:
		a := l.addr(b, in.Mem)
		v := l.emit(b, ir.OpLoad, a)
		v.Size = 1
		old := l.readVar(b, in.Dst)
		l.writeVar(b, in.Dst, l.emit(b, ir.OpSubreg8, old, v))
	case in.Op == isa.STORE:
		a := l.addr(b, in.Mem)
		st := l.emit(b, ir.OpStore, a, l.readVar(b, in.Src))
		st.Size = in.Size
	case in.Op == isa.STOREI:
		a := l.addr(b, in.Mem)
		st := l.emit(b, ir.OpStore, a, l.konst(b, in.Imm))
		st.Size = in.Size
	case in.Op == isa.LEA:
		l.writeVar(b, in.Dst, l.addr(b, in.Mem))

	case in.Op.IsBinOpReg():
		op := binOpFor[in.Op]
		l.writeVar(b, in.Dst, l.emit(b, op, l.readVar(b, in.Dst), l.readVar(b, in.Src)))
	case in.Op.IsBinOpImm():
		op := binOpFor[in.Op.RegForm()]
		l.writeVar(b, in.Dst, l.emit(b, op, l.readVar(b, in.Dst), l.konst(b, in.Imm)))
	case in.Op == isa.NEG:
		l.writeVar(b, in.Dst, l.emit(b, ir.OpNeg, l.readVar(b, in.Dst)))
	case in.Op == isa.NOT:
		l.writeVar(b, in.Dst, l.emit(b, ir.OpNot, l.readVar(b, in.Dst)))

	case in.Op == isa.CMP:
		*fs = flagState{valid: true, a: l.readVar(b, in.Dst), b: l.readVar(b, in.Src)}
	case in.Op == isa.CMPI:
		*fs = flagState{valid: true, a: l.readVar(b, in.Dst), b: l.konst(b, in.Imm)}
	case in.Op == isa.TEST:
		*fs = flagState{valid: true, isTest: true, a: l.readVar(b, in.Dst), b: l.readVar(b, in.Src)}
	case in.Op == isa.SET:
		v, err := l.condValue(b, in.Cond)
		if err != nil {
			return err
		}
		l.writeVar(b, in.Dst, v)

	case in.Op == isa.PUSH, in.Op == isa.PUSHI:
		sp := l.readVar(b, isa.ESP)
		nsp := l.emit(b, ir.OpSub, sp, l.konst(b, 4))
		l.writeVar(b, isa.ESP, nsp)
		var v *ir.Value
		if in.Op == isa.PUSH {
			v = l.readVar(b, in.Src)
		} else {
			v = l.konst(b, in.Imm)
		}
		st := l.emit(b, ir.OpStore, nsp, v)
		st.Size = 4
	case in.Op == isa.POP:
		sp := l.readVar(b, isa.ESP)
		v := l.emit(b, ir.OpLoad, sp)
		v.Size = 4
		l.writeVar(b, in.Dst, v)
		l.writeVar(b, isa.ESP, l.emit(b, ir.OpAdd, sp, l.konst(b, 4)))

	case in.Op == isa.SYS:
		if in.Imm != 0 {
			return fmt.Errorf("unsupported syscall %d", in.Imm)
		}
		// exit(eax): lifted like HALT but as a plain instruction is not
		// expected; handled in liftControl.
		return fmt.Errorf("sys must terminate a block")

	default:
		return fmt.Errorf("unsupported op %s", in.Op)
	}
	return nil
}

// regArgs reads the full register file as call arguments.
func (l *fnLift) regArgs(b *ir.Block) []*ir.Value {
	args := make([]*ir.Value, isa.NumRegs)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		args[r] = l.readVar(b, r)
	}
	return args
}

// writeRegResults spreads a register-file tuple back into the virtual
// registers.
func (l *fnLift) writeRegResults(b *ir.Block, call *ir.Value) {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		ex := l.emit(b, ir.OpExtract, call)
		ex.Idx = int(r)
		l.writeVar(b, r, ex)
	}
}

// succBlockOrTrap maps a machine successor address to its IR block, or the
// trap block when the address was never traced as part of this function.
func (l *fnLift) succBlockOrTrap(addr uint32, observed []uint32) *ir.Block {
	for _, s := range observed {
		if s == addr {
			if blk := l.blocks[addr]; blk != nil {
				return blk
			}
		}
	}
	return l.trap()
}

// liftControl lowers a block-terminating instruction.
func (l *fnLift) liftControl(b *ir.Block, mb *tracer.Block, pc uint32, in *isa.Instr) error {
	switch in.Op {
	case isa.JMP, isa.JMPR:
		if l.cfg.TailJumps[pc] {
			return l.liftTailJump(b, mb, pc, in)
		}
		if in.Op == isa.JMP {
			t := l.blocks[uint32(in.Imm)]
			if t == nil {
				return fmt.Errorf("jump target 0x%x not in function", uint32(in.Imm))
			}
			l.link(b, t)
			l.emit(b, ir.OpJmp)
			return nil
		}
		// Indirect jump (jump table): switch over the observed targets.
		v := l.readVar(b, in.Src)
		sw := l.f.NewValue(ir.OpSwitch, v)
		for _, t := range mb.Succs {
			tb := l.blocks[t]
			if tb == nil {
				return fmt.Errorf("indirect jump target 0x%x not in function", t)
			}
			sw.Cases = append(sw.Cases, ir.SwitchCase{Val: t})
			l.link(b, tb)
		}
		l.link(b, l.trap())
		b.Append(sw)
		return nil

	case isa.JCC:
		cond, err := l.condValue(b, in.Cond)
		if err != nil {
			return err
		}
		taken := uint32(in.Imm)
		fall := pc + isa.InstrSize
		tb := l.succBlockOrTrap(taken, mb.Succs)
		fb := l.succBlockOrTrap(fall, mb.Succs)
		if tb == fb {
			l.link(b, tb)
			l.emit(b, ir.OpJmp)
			return nil
		}
		l.link(b, tb)
		l.link(b, fb)
		l.emit(b, ir.OpBr, cond)
		return nil

	case isa.CALL:
		target := uint32(in.Imm)
		if isa.IsExtAddr(target) {
			return l.liftExtCall(b, mb, pc, target)
		}
		callee := l.mod.FuncAt(target)
		if callee == nil {
			return fmt.Errorf("call target 0x%x not a recovered function", target)
		}
		l.liftInternalCall(b, pc, callee, nil)
		return l.callFallthrough(b, mb)

	case isa.CALLR:
		// Indirect call: dispatch on the original target address.
		tv := l.readVar(b, in.Src)
		sp := l.readVar(b, isa.ESP)
		nsp := l.emit(b, ir.OpSub, sp, l.konst(b, 4))
		l.writeVar(b, isa.ESP, nsp)
		st := l.emit(b, ir.OpStore, nsp, l.konst(b, int32(pc+isa.InstrSize)))
		st.Size = 4
		call := l.f.NewValue(ir.OpCallInd, append([]*ir.Value{tv}, l.regArgs(b)...)...)
		call.NumRet = isa.NumRegs
		for _, t := range l.cfg.Trace.Targets(pc) {
			callee := l.mod.FuncAt(t)
			if callee == nil {
				return fmt.Errorf("indirect call target 0x%x not recovered", t)
			}
			call.Targets = append(call.Targets, callee)
		}
		b.Append(call)
		l.writeRegResults(b, call)
		return l.callFallthrough(b, mb)

	case isa.RET:
		sp := l.readVar(b, isa.ESP)
		l.writeVar(b, isa.ESP, l.emit(b, ir.OpAdd, sp, l.konst(b, 4)))
		ret := l.f.NewValue(ir.OpRet, l.regArgs(b)...)
		b.Append(ret)
		return nil

	case isa.HALT:
		ext := l.f.NewValue(ir.OpCallExt, l.readVar(b, isa.EAX))
		ext.Sym = "exit"
		ext.NumRet = 1
		b.Append(ext)
		b.Append(l.f.NewValue(ir.OpTrap))
		return nil

	case isa.SYS:
		if in.Imm != 0 {
			return fmt.Errorf("unsupported syscall %d", in.Imm)
		}
		ext := l.f.NewValue(ir.OpCallExt, l.readVar(b, isa.EAX))
		ext.Sym = "exit"
		ext.NumRet = 1
		b.Append(ext)
		b.Append(l.f.NewValue(ir.OpTrap))
		return nil
	}
	return fmt.Errorf("unsupported control op %s", in.Op)
}

// liftInternalCall emits the push-return-address + call + result spreading
// sequence. If args is non-nil it is used instead of the current register
// file (tail-call stubs pass pre-read registers).
func (l *fnLift) liftInternalCall(b *ir.Block, pc uint32, callee *ir.Func, args []*ir.Value) *ir.Value {
	sp := l.readVar(b, isa.ESP)
	nsp := l.emit(b, ir.OpSub, sp, l.konst(b, 4))
	l.writeVar(b, isa.ESP, nsp)
	st := l.emit(b, ir.OpStore, nsp, l.konst(b, int32(pc+isa.InstrSize)))
	st.Size = 4
	if args == nil {
		args = l.regArgs(b)
	} else {
		args[isa.ESP] = nsp
	}
	call := l.f.NewValue(ir.OpCall, args...)
	call.Callee = callee
	call.NumRet = isa.NumRegs
	b.Append(call)
	l.writeRegResults(b, call)
	return call
}

func (l *fnLift) callFallthrough(b *ir.Block, mb *tracer.Block) error {
	if len(mb.Succs) == 0 {
		// The call never returned in any trace (e.g. it exits).
		b.Append(l.f.NewValue(ir.OpTrap))
		return nil
	}
	succ := l.blocks[mb.Succs[0]]
	if succ == nil {
		return fmt.Errorf("call return site 0x%x not in function", mb.Succs[0])
	}
	l.link(b, succ)
	l.emit(b, ir.OpJmp)
	return nil
}

// liftExtCall lowers a call to a library function. Known fixed signatures
// get explicit arguments loaded from the emulated stack; variadic functions
// keep the raw stack-switching form until the varargs refinement.
func (l *fnLift) liftExtCall(b *ir.Block, mb *tracer.Block, pc uint32, target uint32) error {
	name, ok := l.img.ExtName(target)
	if !ok {
		return fmt.Errorf("unknown external 0x%x", target)
	}
	sig, ok := extdb.Lookup(name)
	if !ok {
		return fmt.Errorf("external %q not in database", name)
	}
	sp := l.readVar(b, isa.ESP)
	var call *ir.Value
	if sig.Variadic {
		call = l.f.NewValue(ir.OpCallExtRaw, sp)
	} else {
		args := make([]*ir.Value, sig.Params)
		for i := 0; i < sig.Params; i++ {
			a := sp
			if i > 0 {
				a = l.emit(b, ir.OpAdd, sp, l.konst(b, int32(4*i)))
			}
			ld := l.emit(b, ir.OpLoad, a)
			ld.Size = 4
			args[i] = ld
		}
		call = l.f.NewValue(ir.OpCallExt, args...)
	}
	call.Sym = name
	call.NumRet = 1
	b.Append(call)
	ex := l.emit(b, ir.OpExtract, call)
	ex.Idx = 0
	l.writeVar(b, isa.EAX, ex)
	return l.callFallthrough(b, mb)
}

// liftTailJump lowers a jump classified as a tail call: call the target
// with the current registers (the return address of our own caller is
// already on the emulated stack) and return its results.
func (l *fnLift) liftTailJump(b *ir.Block, mb *tracer.Block, pc uint32, in *isa.Instr) error {
	if in.Op == isa.JMP {
		callee := l.mod.FuncAt(uint32(in.Imm))
		if callee == nil {
			return fmt.Errorf("tail-call target 0x%x not recovered", uint32(in.Imm))
		}
		call := l.f.NewValue(ir.OpCall, l.regArgs(b)...)
		call.Callee = callee
		call.NumRet = isa.NumRegs
		b.Append(call)
		rets := make([]*ir.Value, isa.NumRegs)
		for r := 0; r < isa.NumRegs; r++ {
			ex := l.emit(b, ir.OpExtract, call)
			ex.Idx = r
			rets[r] = ex
		}
		b.Append(l.f.NewValue(ir.OpRet, rets...))
		return nil
	}
	// Indirect tail jump: switch to per-target stubs.
	tv := l.readVar(b, in.Src)
	args := l.regArgs(b)
	sw := l.f.NewValue(ir.OpSwitch, tv)
	var stubs []*ir.Block
	for _, t := range mb.Succs {
		callee := l.mod.FuncAt(t)
		if callee == nil {
			return fmt.Errorf("indirect tail-call target 0x%x not recovered", t)
		}
		stub := l.f.NewBlock(0)
		l.sealed[stub] = true
		l.filled[stub] = true
		call := l.f.NewValue(ir.OpCall, args...)
		call.Callee = callee
		call.NumRet = isa.NumRegs
		stub.Append(call)
		rets := make([]*ir.Value, isa.NumRegs)
		for r := 0; r < isa.NumRegs; r++ {
			ex := l.f.NewValue(ir.OpExtract, call)
			ex.Idx = r
			stub.Append(ex)
			rets[r] = ex
		}
		stub.Append(l.f.NewValue(ir.OpRet, rets...))
		sw.Cases = append(sw.Cases, ir.SwitchCase{Val: t})
		stubs = append(stubs, stub)
	}
	for _, s := range stubs {
		l.link(b, s)
	}
	l.link(b, l.trap())
	b.Append(sw)
	return nil
}
