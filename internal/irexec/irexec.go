// Package irexec interprets lifted IR modules. It plays the role of
// compiling and running the instrumented lifted program in the paper's
// refinement loop (Figure 4): the Tracer's Act hook receives executed
// instructions together with their operand values, which is how the
// dynamic analyses (saved-register identification, stack-variable
// tracking) observe the program. Library calls dispatch into the exact
// same simulated libc the machine uses, so behaviour matches the original
// binary bit for bit.
//
// The interpreter does not walk the IR. A Program compiles each function
// lazily, on its first activation, into a flat instruction array
// (compile.go): operands are register-file indices, constants live in a
// per-function constant area behind the value slots, successors are code
// indices, and every control-flow edge carries its precomputed phi moves.
// One Program serves every input of a refinement replay concurrently; the
// module must not change while a Program executes it. Activations reuse
// one frame per call depth, so a steady-state call/ret cycle allocates
// nothing. Tracers keep their per-value metadata in typed Slots tables,
// indexed by the same dense value slots (ir/layout.go).
//
// A refinement tracer acts on few of the instructions it sees, and knows
// before the program runs what it will do at each, as the paper's
// instrumentation is placed per operation with its operands fixed. A
// Program built with the tracer's Observer (filter.go) therefore compiles
// a tracer-defined action into every instruction and phi move, beside
// the operand and result slots the action reads (a Site): Act fires only
// where the action is not Skip, and the tracer switches on the code.
// Without an Observer every executed instruction and phi move reaches Act
// with the Generic action.
package irexec

import (
	"errors"
	"fmt"
	"io"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
)

// NativeStackTop is where the interpreter's native-stack region (used by
// Alloca values after symbolization) begins, growing downward. It is
// disjoint from the emulated-stack region under isa.StackTop.
const NativeStackTop uint32 = 0xDFFF_FF00

// defaultMaxSteps is the step budget of an Interp whose MaxSteps is 0.
const defaultMaxSteps = 4_000_000_000

// Frame is one activation of a lifted function. Frames are recycled between
// activations: a *Frame pointer is only meaningful while its activation is
// live, and pointer identity does not distinguish activations — use Epoch
// for that.
type Frame struct {
	Fn       *ir.Func  // the function this activation executes
	Caller   *Frame    // the activation below, nil for entry
	CallSite *ir.Value // the OpCall/OpCallInd in the caller, nil for entry
	// SP0 is the virtual stack pointer at entry (while the lifted
	// signature still carries ESP; 0 afterwards).
	SP0 uint32
	// Epoch uniquely identifies this activation within one interpreter
	// run. Tracers that key state by activation must use it instead of the
	// frame pointer, which is recycled.
	Epoch uint64
	// Depth is the activation's call depth: 0 for the entry function, the
	// caller's depth plus one otherwise. Live activations have distinct
	// depths, which is how Slots keeps one table window per activation.
	Depth int
	// FnIndex is Fn's dense index in the Program (see Program), for
	// tracers that keep per-function tables in slices. It is the same for
	// every activation of Fn in one Program.
	FnIndex int
	// Mem is the address space the activation runs in, for tracers that
	// read program memory (C strings, variadic arguments).
	Mem *machine.Memory

	// code is the compiled function; nil for frames built outside the
	// interpreter.
	code *code
	// regs is the register file: the dense SSA value slots (Value.Slot),
	// then the function's constant area.
	regs []uint32
	// tuples is the flat call-result arena; a call's results live at
	// Value.TupleOff.
	tuples []uint32
	// argbuf and phibuf are per-frame scratch for operand evaluation and
	// simultaneous phi assignment.
	argbuf []uint32
	phibuf []uint32
}

// Tuple returns the results of a call value, or nil if the value produces
// no tuple. The slice aliases the frame's tuple arena and is only valid
// while the frame is live.
func (fr *Frame) Tuple(v *ir.Value) []uint32 {
	w := v.TupleWidth()
	if w == 0 || v.TupleOff() < 0 {
		return nil
	}
	off := v.TupleOff()
	return fr.tuples[off : off+w]
}

// layout returns the frame's value-slot count and call-tuple words: from
// the compiled code for interpreter frames, from the function's cached
// layout for frames built by hand.
func (fr *Frame) layout() (slots, words int) {
	if fr.code != nil {
		return fr.code.nslots, fr.code.tupleWords
	}
	fr.Fn.EnsureLayout()
	lay := fr.Fn.Layout()
	return lay.NumSlots, lay.TupleWords
}

// Tracer observes execution. All methods may be no-ops. Slices passed to
// the hooks (args, rets) alias interpreter scratch buffers and must not be
// retained past the call. Under a Program built with an Observer, Act
// fires only at the sites whose compiled action is not Skip; FnEnter and
// FnExit always fire.
//
// An internal call (OpCall/OpCallInd) reaches the tracer as the callee's
// FnEnter and FnExit, in which fr.Caller and fr.CallSite name the calling
// activation and the call: a tracer reads the call's operands from the
// caller's slots on entry and writes into the call's tuple words on exit,
// as the paper's fnenter and fnexit do. No state needs to carry a call
// between hooks.
type Tracer interface {
	// FnEnter fires after parameters are bound, before the function's
	// first instruction.
	FnEnter(fr *Frame)
	// FnExit fires just before the frame is popped, with the OpRet
	// instruction and the return values.
	FnExit(fr *Frame, ret *ir.Value, rets []uint32)
	// Act fires at a site: after an instruction computed its result, with
	// its evaluated operands in args (for calls, result is the first
	// return value), and for each phi move when control enters a block,
	// after the phi took the incoming value, with args nil and result the
	// moved value. s points into the compiled code and must not be
	// changed.
	Act(fr *Frame, s *Site, args []uint32, result uint32)
}

// Interp executes a module.
type Interp struct {
	Mod *ir.Module        // the executed module
	Mem *machine.Memory   // the program's address space
	Lib *machine.LibState // simulated library state (shared with Mem)
	Tr  Tracer            // observation hook, may be nil

	Steps    uint64 // IR values evaluated
	Hooks    uint64 // Act calls made to Tr
	MaxSteps uint64 // execution budget; 0 means the default of 4·10⁹

	// StubHits counts executions of trap instructions, keyed by the name
	// of the function the trap sits in. Populated lazily on the first hit;
	// zero for runs that never leave the traced region.
	StubHits map[string]int

	prog *Program
	// frames holds one reusable frame per call depth.
	frames   []*Frame
	nativeSP uint32
	epoch    uint64
}

// Result of a complete run.
type Result struct {
	ExitCode int32  // the program's exit status
	Steps    uint64 // IR values evaluated
	Hooks    uint64 // Act calls made to the tracer
}

var errHalted = errors.New("halted")

// ErrTrap is returned when execution reaches an untraced path.
var ErrTrap = errors.New("irexec: trap: input exercised an untraced path")

// ErrMaxSteps is returned, wrapped with the name of the executing
// function, when execution exceeds the step budget.
var ErrMaxSteps = errors.New("irexec: step budget exceeded")

// New prepares an interpreter over fresh memory, with a private Program
// for mod without an Observer.
func New(mod *ir.Module, input machine.Input, out io.Writer) (*Interp, error) {
	return NewProgram(mod, nil).NewInterp(input, out)
}

// NewInterp prepares an interpreter for one input over fresh memory. The
// interpreters of one Program share its compiled code and may run
// concurrently.
func (p *Program) NewInterp(input machine.Input, out io.Writer) (*Interp, error) {
	mem := machine.NewMemory()
	if err := mem.WriteBytes(isa.DataBase, p.mod.Data); err != nil {
		return nil, err
	}
	lib, err := machine.NewLibState(mem, input, out)
	if err != nil {
		return nil, err
	}
	return &Interp{
		Mod:      p.mod,
		Mem:      mem,
		Lib:      lib,
		prog:     p,
		nativeSP: NativeStackTop,
	}, nil
}

// Run executes a module under one input.
func Run(mod *ir.Module, input machine.Input, out io.Writer, tr Tracer) (Result, error) {
	ip, err := New(mod, input, out)
	if err != nil {
		return Result{}, err
	}
	ip.Tr = tr
	return ip.Run()
}

// Run executes from the module entry until exit.
func (ip *Interp) Run() (Result, error) {
	entry := ip.Mod.Entry
	args := make([]uint32, len(entry.Params))
	for i, p := range entry.Params {
		if p.RegHint == isa.ESP {
			args[i] = isa.StackTop
		}
	}
	dest := make([]uint32, entry.NumRet)
	err := ip.call(ip.prog.entry(entry), args, nil, nil, dest)
	if err != nil && !errors.Is(err, errHalted) {
		return Result{}, err
	}
	if !ip.Lib.Halted {
		return Result{}, fmt.Errorf("irexec: program finished without exiting")
	}
	return Result{ExitCode: ip.Lib.ExitCode, Steps: ip.Steps, Hooks: ip.Hooks}, nil
}

// newFrame takes the frame for the next call depth, sizes its slices for
// c and binds the parameters. In steady state every slice is reused.
func (ip *Interp) newFrame(c *code, args []uint32, caller *Frame, site *ir.Value) *Frame {
	depth := 0
	if caller != nil {
		depth = caller.Depth + 1
	}
	if depth == len(ip.frames) {
		ip.frames = append(ip.frames, &Frame{Mem: ip.Mem})
	}
	fr := ip.frames[depth]
	ip.epoch++
	fr.Fn, fr.Caller, fr.CallSite, fr.Epoch, fr.Depth = c.fn, caller, site, ip.epoch, depth
	fr.FnIndex, fr.code = c.index, c
	fr.SP0 = 0
	fr.regs = resize(fr.regs, c.nslots+len(c.consts))
	clear(fr.regs[:c.nslots])
	copy(fr.regs[c.nslots:], c.consts)
	fr.tuples = resize(fr.tuples, c.tupleWords)
	clear(fr.tuples)
	fr.argbuf = resize(fr.argbuf, c.maxArgs)
	fr.phibuf = resize(fr.phibuf, c.maxPhis)
	for i, s := range c.params {
		fr.regs[s] = args[i]
	}
	if c.espParam >= 0 {
		fr.SP0 = args[c.espParam]
	}
	return fr
}

// resize returns s with length n, reusing its backing array when large
// enough. The contents are unspecified.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// call runs one activation of e's function. The return values are written
// into dest (the caller's tuple-arena window for the call site, or a fresh
// slice for the entry call); at most len(dest) values are stored.
func (ip *Interp) call(e *fnCode, args []uint32, caller *Frame, site *ir.Value, dest []uint32) error {
	if len(args) != len(e.fn.Params) {
		return fmt.Errorf("irexec: call to %s with %d args, want %d", e.fn.Name, len(args), len(e.fn.Params))
	}
	fr := ip.newFrame(ip.prog.code(e), args, caller, site)
	savedNative := ip.nativeSP
	err := ip.run(fr, dest)
	ip.nativeSP = savedNative
	return err
}

// run executes fr's compiled function until it returns, traps or errors.
func (ip *Interp) run(fr *Frame, dest []uint32) error {
	c := fr.code
	tr := ip.Tr
	if tr != nil {
		tr.FnEnter(fr)
	}
	limit := ip.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	regs := fr.regs
	insts := c.insts
	pc := c.edges[0].pc
	if c.edges[0].n != 0 {
		if err := ip.phis(fr, &c.edges[0]); err != nil {
			return err
		}
	}
	for {
		in := &insts[pc]
		pc++
		ip.Steps++
		if ip.Steps > limit {
			return fmt.Errorf("%w in %s", ErrMaxSteps, c.fn.Name)
		}
		var res uint32
		switch in.op {
		case opConst:
			res = in.x
		case opSP0:
			res = fr.SP0
		case opAdd:
			res = regs[in.a] + regs[in.b]
		case opSub:
			res = regs[in.a] - regs[in.b]
		case opMul:
			res = regs[in.a] * regs[in.b]
		case opDiv:
			d := regs[in.b]
			if d == 0 {
				return fmt.Errorf("irexec: division by zero in %s", c.fn.Name)
			}
			res = uint32(int32(regs[in.a]) / int32(d))
		case opMod:
			d := regs[in.b]
			if d == 0 {
				return fmt.Errorf("irexec: division by zero in %s", c.fn.Name)
			}
			res = uint32(int32(regs[in.a]) % int32(d))
		case opAnd:
			res = regs[in.a] & regs[in.b]
		case opOr:
			res = regs[in.a] | regs[in.b]
		case opXor:
			res = regs[in.a] ^ regs[in.b]
		case opShl:
			res = regs[in.a] << (regs[in.b] & 31)
		case opShr:
			res = regs[in.a] >> (regs[in.b] & 31)
		case opSar:
			res = uint32(int32(regs[in.a]) >> (regs[in.b] & 31))
		case opNeg:
			res = -regs[in.a]
		case opNot:
			res = ^regs[in.a]
		case opSubreg8:
			res = regs[in.a]&^0xFF | regs[in.b]&0xFF
		case opMov:
			res = regs[in.a]
		case opSext8:
			res = uint32(int32(int8(regs[in.a])))
		case opSext16:
			res = uint32(int32(int16(regs[in.a])))
		case opZext8:
			res = regs[in.a] & 0xFF
		case opZext16:
			res = regs[in.a] & 0xFFFF
		case opCmp:
			if in.cond.Eval(regs[in.a], regs[in.b]) {
				res = 1
			}
		case opLoad:
			lv, err := ip.Mem.Load(regs[in.a], in.size)
			if err != nil {
				return fmt.Errorf("irexec: %s: %w", c.fn.Name, err)
			}
			if in.flags&flagSigned != 0 {
				switch in.size {
				case 1:
					lv = uint32(int32(int8(lv)))
				case 2:
					lv = uint32(int32(int16(lv)))
				}
			}
			res = lv
		case opStore:
			if err := ip.Mem.Store(regs[in.a], regs[in.b], in.size); err != nil {
				return fmt.Errorf("irexec: %s: %w", c.fn.Name, err)
			}
		case opAlloca:
			ip.nativeSP = (ip.nativeSP - in.x) &^ (in.y - 1)
			res = ip.nativeSP
		case opCall, opCallInd:
			argv := fr.operands(in)
			target, args := in.callee, argv
			if in.op == opCallInd {
				f := ip.Mod.FuncAt(argv[0])
				if f == nil {
					return fmt.Errorf("irexec: %s: indirect call to unknown 0x%x", c.fn.Name, argv[0])
				}
				target, args = ip.prog.entry(f), argv[1:]
			}
			// Only a tracer sees the callee's frame, so only a traced run
			// fetches the call for Frame.CallSite.
			var call *ir.Value
			if tr != nil {
				call = c.sites[pc-1].V
			}
			dest := fr.tuples[in.x : in.x+in.y]
			if err := ip.call(target, args, fr, call, dest); err != nil {
				return err
			}
			if len(dest) > 0 {
				res = dest[0]
			}
			regs[in.dst] = res
			if tr != nil && in.flags&flagHook != 0 {
				ip.Hooks++
				tr.Act(fr, &c.sites[pc-1], argv, res)
			}
			continue
		case opCallExt, opCallExtRaw:
			argv := fr.operands(in)
			ret, err := ip.extCall(fr, in.op, c.sites[pc-1].V, argv)
			if err != nil {
				return err
			}
			fr.tuples[in.x] = ret
			res = ret
			if ip.Lib.Halted {
				if tr != nil && in.flags&flagHook != 0 {
					ip.Hooks++
					tr.Act(fr, &c.sites[pc-1], argv, res)
				}
				return errHalted
			}
		case opExtract:
			res = fr.tuples[in.x]
		case opJmp, opBr, opSwitch:
			ei := in.x
			if in.op == opBr && regs[in.a] == 0 {
				ei++
			} else if in.op == opSwitch {
				ei += caseIndex(c.cases[in.y:in.y+in.b], regs[in.a])
			}
			e := &c.edges[ei]
			if e.n != 0 {
				if err := ip.phis(fr, e); err != nil {
					return err
				}
			}
			pc = e.pc
			continue
		case opRet:
			n := min(int(in.n), len(dest))
			for i, r := range c.ops[in.ops : in.ops+uint32(n)] {
				dest[i] = regs[r]
			}
			if tr != nil {
				tr.FnExit(fr, c.sites[pc-1].V, dest[:n])
			}
			return nil
		case opTrap:
			if ip.StubHits == nil {
				ip.StubHits = make(map[string]int)
			}
			ip.StubHits[c.fn.Name]++
			return fmt.Errorf("%w (in %s)", ErrTrap, c.fn.Name)
		default: // opBad
			return c.errs[in.x]
		}
		if tr != nil && in.flags&flagHook != 0 {
			argv := fr.operands(in)
			regs[in.dst] = res
			ip.Hooks++
			tr.Act(fr, &c.sites[pc-1], argv, res)
		} else {
			regs[in.dst] = res
		}
	}
}

// operands evaluates in's operands into the frame's argument buffer.
func (fr *Frame) operands(in *inst) []uint32 {
	argv := fr.argbuf[:in.n]
	switch len(argv) {
	case 0:
	case 1:
		argv[0] = fr.regs[in.a]
	case 2:
		argv[0], argv[1] = fr.regs[in.a], fr.regs[in.b]
	default:
		for i, r := range fr.code.ops[in.ops : in.ops+in.n] {
			argv[i] = fr.regs[r]
		}
	}
	return argv
}

// caseIndex returns the position of the first case equal to sel, or
// len(cases) (the default successor) when none is.
func caseIndex(cases []uint32, sel uint32) uint32 {
	for i, c := range cases {
		if c == sel {
			return uint32(i)
		}
	}
	return uint32(len(cases))
}

// phis performs an edge's simultaneous phi assignment, or reports the
// edge's error. Act fires for the moves whose action is not Skip.
func (ip *Interp) phis(fr *Frame, e *edge) error {
	c := fr.code
	if e.n < 0 {
		return c.errs[e.mv]
	}
	moves := c.moves[e.mv : e.mv+uint32(e.n)]
	tmp := fr.phibuf[:len(moves)]
	for i, m := range moves {
		tmp[i] = fr.regs[m.src]
	}
	for i, m := range moves {
		fr.regs[m.dst] = tmp[i]
		if m.hook && ip.Tr != nil {
			ip.Hooks++
			ip.Tr.Act(fr, &c.msites[e.mv+uint32(i)], nil, tmp[i])
		}
	}
	return nil
}

// extCall runs the library call v: OpCallExt passes its operands,
// OpCallExtRaw the emulated-stack words at its single operand.
func (ip *Interp) extCall(fr *Frame, o op, v *ir.Value, argv []uint32) (uint32, error) {
	if o == opCallExtRaw {
		base := argv[0]
		return ip.Lib.Call(v.Sym, func(i int) (uint32, error) {
			return ip.Mem.Load(base+uint32(4*i), 4)
		})
	}
	return ip.Lib.Call(v.Sym, func(i int) (uint32, error) {
		if i >= len(argv) {
			return 0, fmt.Errorf("irexec: %s: %s reads arg %d beyond %d",
				fr.Fn.Name, v.Sym, i, len(argv))
		}
		return argv[i], nil
	})
}
