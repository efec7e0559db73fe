package irexec

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
)

// treeWalker is the reference interpreter the compiled one is checked
// against: it walks the IR itself, evaluating each block's phis against
// the incoming edge (a scan of Preds), fetching every operand through
// Frame.Get (declared here, as only the reference uses it) and
// dispatching on ir.Op. Apart from setting Frame.Depth and Frame.Mem,
// which the tracers need, dropping the old per-frame
// metadata file, and asking an Observer's filters before each Exec and
// Phi hook, its code is the interpreter as it was before compilation.
type treeWalker struct {
	Mod *ir.Module
	Mem *machine.Memory
	Lib *machine.LibState
	Tr  Tracer
	// Obs filters the Exec and Phi hooks (nil: every one fires); filters
	// memoizes its per-function filters.
	Obs     Observer
	filters map[*ir.Func]Filter

	Steps    uint64
	Hooks    uint64
	MaxSteps uint64

	StubHits map[string]int

	nativeSP uint32
	epoch    uint64
}

// Get returns the current value of an SSA value in this frame. Constants
// evaluate positionally-independently (passes may move their uses above
// their definition point).
func (fr *Frame) Get(v *ir.Value) uint32 {
	if v.Op == ir.OpConst {
		return uint32(v.Const)
	}
	return fr.regs[v.Slot()]
}

// treeFramePool recycles the reference interpreter's frames.
var treeFramePool = sync.Pool{New: func() any { return new(Frame) }}

// RunReference runs mod under one input on the reference tree-walker with
// the step budget maxSteps and the hook filters of obs (nil: none),
// returning what the compiled interpreter's Run returns plus the final
// Steps, Hooks, StubHits and memory.
func RunReference(mod *ir.Module, input machine.Input, out io.Writer, tr Tracer, obs Observer, maxSteps uint64) (Result, uint64, uint64, map[string]int, *machine.Memory, error) {
	mem := machine.NewMemory()
	if err := mem.WriteBytes(isa.DataBase, mod.Data); err != nil {
		return Result{}, 0, 0, nil, nil, err
	}
	lib, err := machine.NewLibState(mem, input, out)
	if err != nil {
		return Result{}, 0, 0, nil, nil, err
	}
	ip := &treeWalker{Mod: mod, Mem: mem, Lib: lib, Tr: tr, Obs: obs, MaxSteps: maxSteps, nativeSP: NativeStackTop}
	res, err := ip.Run()
	return res, ip.Steps, ip.Hooks, ip.StubHits, mem, err
}

// filter returns f's filter, nil when every hook fires.
func (ip *treeWalker) filter(f *ir.Func) Filter {
	if ip.Obs == nil {
		return nil
	}
	flt, ok := ip.filters[f]
	if !ok {
		if ip.filters == nil {
			ip.filters = make(map[*ir.Func]Filter)
		}
		f.EnsureLayout()
		flt = ip.Obs.Observes(f)
		ip.filters[f] = flt
	}
	return flt
}

// hookExec fires the Exec hook if the filter observes v.
func (ip *treeWalker) hookExec(fr *Frame, v *ir.Value, argv []uint32, res uint32) {
	if ip.Tr == nil {
		return
	}
	if flt := ip.filter(fr.Fn); flt != nil && !flt.Exec(v) {
		return
	}
	ip.Hooks++
	ip.Tr.Exec(fr, v, argv, res)
}

// Run executes from the module entry until exit.
func (ip *treeWalker) Run() (Result, error) {
	args := make([]uint32, len(ip.Mod.Entry.Params))
	for i, p := range ip.Mod.Entry.Params {
		if p.RegHint == isa.ESP {
			args[i] = isa.StackTop
		}
	}
	dest := make([]uint32, ip.Mod.Entry.NumRet)
	err := ip.call(ip.Mod.Entry, args, nil, nil, dest)
	if err != nil && !errors.Is(err, errHalted) {
		return Result{}, err
	}
	if !ip.Lib.Halted {
		return Result{}, fmt.Errorf("irexec: program finished without exiting")
	}
	return Result{ExitCode: ip.Lib.ExitCode, Steps: ip.Steps, Hooks: ip.Hooks}, nil
}

// newFrame takes a recycled frame from the pool, sizes its slices for f's
// dense layout and binds the parameters. All call-state allocation lives
// here (the former lazy tuple-map initialization at the individual call-op
// sites included); in steady state every slice is reused.
func (ip *treeWalker) newFrame(f *ir.Func, args []uint32, caller *Frame, site *ir.Value) *Frame {
	f.EnsureLayout()
	lay := f.Layout()
	fr := treeFramePool.Get().(*Frame)
	ip.epoch++
	fr.Fn, fr.Caller, fr.CallSite, fr.Epoch, fr.Mem = f, caller, site, ip.epoch, ip.Mem
	fr.Depth = 0
	if caller != nil {
		fr.Depth = caller.Depth + 1
	}
	fr.SP0 = 0
	if cap(fr.regs) < lay.NumSlots {
		fr.regs = make([]uint32, lay.NumSlots)
	} else {
		fr.regs = fr.regs[:lay.NumSlots]
		clear(fr.regs)
	}
	if cap(fr.tuples) < lay.TupleWords {
		fr.tuples = make([]uint32, lay.TupleWords)
	} else {
		fr.tuples = fr.tuples[:lay.TupleWords]
		clear(fr.tuples)
	}
	if cap(fr.argbuf) < lay.MaxArgs {
		fr.argbuf = make([]uint32, lay.MaxArgs)
	} else {
		fr.argbuf = fr.argbuf[:lay.MaxArgs]
	}
	if cap(fr.phibuf) < lay.MaxPhis {
		fr.phibuf = make([]uint32, lay.MaxPhis)
	} else {
		fr.phibuf = fr.phibuf[:lay.MaxPhis]
	}
	for i, p := range f.Params {
		fr.regs[p.Slot()] = args[i]
		if p.RegHint == isa.ESP {
			fr.SP0 = args[i]
		}
	}
	return fr
}

// freeFrame clears the frame's pointer-carrying state and returns it to the
// pool. Frames on error paths are simply dropped (the run is terminal).
func freeFrame(fr *Frame) {
	fr.Fn, fr.Caller, fr.CallSite, fr.Mem = nil, nil, nil, nil
	treeFramePool.Put(fr)
}

// call runs one activation of f. The return values are written into dest
// (the caller's tuple-arena window for the call site, or a fresh slice for
// the entry call); at most len(dest) values are stored.
func (ip *treeWalker) call(f *ir.Func, args []uint32, caller *Frame, site *ir.Value, dest []uint32) error {
	if len(args) != len(f.Params) {
		return fmt.Errorf("irexec: call to %s with %d args, want %d", f.Name, len(args), len(f.Params))
	}
	fr := ip.newFrame(f, args, caller, site)
	savedNative := ip.nativeSP
	err := ip.run(fr, dest)
	ip.nativeSP = savedNative
	if err == nil {
		freeFrame(fr)
	}
	return err
}

// run executes fr's function body until it returns, traps or errors.
func (ip *treeWalker) run(fr *Frame, dest []uint32) error {
	f := fr.Fn
	if ip.Tr != nil {
		ip.Tr.FnEnter(fr)
	}

	cur := f.Entry()
	var prev *ir.Block
	for {
		// Phis evaluate simultaneously against the incoming edge.
		if len(cur.Phis) > 0 {
			idx := -1
			for i, p := range cur.Preds {
				if p == prev {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("irexec: %s: edge b%d->b%d unknown", f.Name, blockID(prev), cur.ID)
			}
			tmp := fr.phibuf[:len(cur.Phis)]
			for i, phi := range cur.Phis {
				if phi.Args[idx] == nil {
					return fmt.Errorf("irexec: %s: phi %s missing arg %d", f.Name, phi, idx)
				}
				tmp[i] = fr.Get(phi.Args[idx])
			}
			for i, phi := range cur.Phis {
				fr.regs[phi.Slot()] = tmp[i]
				if ip.Tr == nil {
					continue
				}
				if flt := ip.filter(f); flt == nil || flt.Phi(phi, phi.Args[idx]) {
					ip.Hooks++
					ip.Tr.Phi(fr, phi, phi.Args[idx], tmp[i])
				}
			}
		}
		for _, v := range cur.Insts {
			ip.Steps++
			if ip.Steps > ip.MaxSteps {
				return fmt.Errorf("irexec: step budget exceeded in %s", f.Name)
			}
			switch v.Op {
			case ir.OpJmp:
				prev, cur = cur, cur.Succs[0]
			case ir.OpBr:
				if fr.Get(v.Args[0]) != 0 {
					prev, cur = cur, cur.Succs[0]
				} else {
					prev, cur = cur, cur.Succs[1]
				}
			case ir.OpSwitch:
				sel := fr.Get(v.Args[0])
				next := cur.Succs[len(v.Cases)]
				for i, c := range v.Cases {
					if c.Val == sel {
						next = cur.Succs[i]
						break
					}
				}
				prev, cur = cur, next
			case ir.OpRet:
				n := len(v.Args)
				if n > len(dest) {
					n = len(dest)
				}
				for i := 0; i < n; i++ {
					dest[i] = fr.Get(v.Args[i])
				}
				if ip.Tr != nil {
					ip.Tr.FnExit(fr, v, dest[:n])
				}
				return nil
			case ir.OpTrap:
				if ip.StubHits == nil {
					ip.StubHits = make(map[string]int)
				}
				ip.StubHits[f.Name]++
				return fmt.Errorf("%w (in %s)", ErrTrap, f.Name)
			default:
				if err := ip.exec(fr, v); err != nil {
					return err
				}
				continue
			}
			break // control transferred
		}
	}
}

func (ip *treeWalker) exec(fr *Frame, v *ir.Value) error {
	argv := fr.argbuf[:len(v.Args)]
	for i, a := range v.Args {
		argv[i] = fr.Get(a)
	}
	var res uint32
	switch v.Op {
	case ir.OpConst:
		res = uint32(v.Const)
	case ir.OpSP0:
		res = fr.SP0
	case ir.OpAdd:
		res = argv[0] + argv[1]
	case ir.OpSub:
		res = argv[0] - argv[1]
	case ir.OpMul:
		res = argv[0] * argv[1]
	case ir.OpDiv:
		if argv[1] == 0 {
			return fmt.Errorf("irexec: division by zero in %s", fr.Fn.Name)
		}
		res = uint32(int32(argv[0]) / int32(argv[1]))
	case ir.OpMod:
		if argv[1] == 0 {
			return fmt.Errorf("irexec: division by zero in %s", fr.Fn.Name)
		}
		res = uint32(int32(argv[0]) % int32(argv[1]))
	case ir.OpAnd:
		res = argv[0] & argv[1]
	case ir.OpOr:
		res = argv[0] | argv[1]
	case ir.OpXor:
		res = argv[0] ^ argv[1]
	case ir.OpShl:
		res = argv[0] << (argv[1] & 31)
	case ir.OpShr:
		res = argv[0] >> (argv[1] & 31)
	case ir.OpSar:
		res = uint32(int32(argv[0]) >> (argv[1] & 31))
	case ir.OpNeg:
		res = -argv[0]
	case ir.OpNot:
		res = ^argv[0]
	case ir.OpSubreg8:
		res = argv[0]&^0xFF | argv[1]&0xFF
	case ir.OpSext:
		switch v.Size {
		case 1:
			res = uint32(int32(int8(argv[0])))
		case 2:
			res = uint32(int32(int16(argv[0])))
		default:
			res = argv[0]
		}
	case ir.OpZext:
		switch v.Size {
		case 1:
			res = argv[0] & 0xFF
		case 2:
			res = argv[0] & 0xFFFF
		default:
			res = argv[0]
		}
	case ir.OpCmp:
		if v.Cond.Eval(argv[0], argv[1]) {
			res = 1
		}
	case ir.OpLoad:
		lv, err := ip.Mem.Load(argv[0], v.Size)
		if err != nil {
			return fmt.Errorf("irexec: %s: %w", fr.Fn.Name, err)
		}
		if v.Signed {
			switch v.Size {
			case 1:
				lv = uint32(int32(int8(lv)))
			case 2:
				lv = uint32(int32(int16(lv)))
			}
		}
		res = lv
	case ir.OpStore:
		if err := ip.Mem.Store(argv[0], argv[1], v.Size); err != nil {
			return fmt.Errorf("irexec: %s: %w", fr.Fn.Name, err)
		}
	case ir.OpAlloca:
		sz := (v.AllocSize + 3) &^ 3
		al := v.Align
		if al < 4 {
			al = 4
		}
		ip.nativeSP = (ip.nativeSP - sz) &^ (al - 1)
		res = ip.nativeSP
	case ir.OpCall:
		dest := fr.Tuple(v)
		if err := ip.call(v.Callee, argv, fr, v, dest); err != nil {
			return err
		}
		if len(dest) > 0 {
			res = dest[0]
		}
	case ir.OpCallInd:
		target := ip.Mod.FuncAt(argv[0])
		if target == nil {
			return fmt.Errorf("irexec: %s: indirect call to unknown 0x%x", fr.Fn.Name, argv[0])
		}
		dest := fr.Tuple(v)
		if err := ip.call(target, argv[1:], fr, v, dest); err != nil {
			return err
		}
		if len(dest) > 0 {
			res = dest[0]
		}
	case ir.OpCallExt:
		arg := func(i int) (uint32, error) {
			if i >= len(argv) {
				return 0, fmt.Errorf("irexec: %s: %s reads arg %d beyond %d",
					fr.Fn.Name, v.Sym, i, len(argv))
			}
			return argv[i], nil
		}
		ret, err := ip.Lib.Call(v.Sym, arg)
		if err != nil {
			return err
		}
		fr.Tuple(v)[0] = ret
		res = ret
		if ip.Lib.Halted {
			ip.hookExec(fr, v, argv, res)
			return errHalted
		}
	case ir.OpCallExtRaw:
		base := argv[0]
		arg := func(i int) (uint32, error) {
			return ip.Mem.Load(base+uint32(4*i), 4)
		}
		ret, err := ip.Lib.Call(v.Sym, arg)
		if err != nil {
			return err
		}
		fr.Tuple(v)[0] = ret
		res = ret
		if ip.Lib.Halted {
			ip.hookExec(fr, v, argv, res)
			return errHalted
		}
	case ir.OpExtract:
		tup := fr.Tuple(v.Args[0])
		if v.Idx >= len(tup) {
			return fmt.Errorf("irexec: %s: extract %d of %d-tuple", fr.Fn.Name, v.Idx, len(tup))
		}
		res = tup[v.Idx]
	default:
		return fmt.Errorf("irexec: %s: cannot execute %s", fr.Fn.Name, v.Op)
	}
	fr.regs[v.Slot()] = res
	ip.hookExec(fr, v, argv, res)
	return nil
}
