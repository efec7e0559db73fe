// Package regsave implements the paper's first refinement (§4.1): the
// dynamic identification of saved registers. At every function entry each
// virtual register is assigned a symbolic value; the analysis watches how
// those symbols flow:
//
//   - a symbol that is only stored to the function's own frame, reloaded
//     from there, and present in the register at return is a *saved*
//     register;
//   - a symbol consumed by any other operation (arithmetic, address
//     computation, a store elsewhere) marks the register an *argument*;
//   - a symbol passed straight through to a callee is *forwarded*; its
//     classification is deferred to constraints ("if edx is an argument in
//     f2, it is an argument in f1") resolved after tracing;
//   - a register whose value at return no longer matches its symbol is
//     neither (clobbered).
//
// Apply then rewrites the module: saved registers disappear from lifted
// signatures, with callers keeping their pre-call SSA value (the paper's
// preemptive save/restore, which in SSA form is just using the old value);
// argument registers stay as parameters; return tuples shrink to the
// registers callers actually consume.
package regsave

import (
	"fmt"
	"maps"
	"slices"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/opt"
)

// Class is a register's classification within one function.
type Class uint8

// Classification lattice (joins upward).
const (
	Saved Class = iota // preserved across the call; drop from the signature
	Other              // clobbered: neither preserved nor read
	Arg                // read by the function: a real argument
)

func (c Class) String() string {
	switch c {
	case Saved:
		return "saved"
	case Other:
		return "clobbered"
	case Arg:
		return "argument"
	}
	return "?"
}

type fnReg struct {
	f *ir.Func
	r isa.Reg
}

// forward is a forwarding constraint: the class of register from joins
// the class of register to.
type forward struct{ from, to fnReg }

// sym is a register symbol in one activation's slot table: sym r+1 tags
// the value register r held at the activation's entry, and 0 means no
// symbol. Symbols flow only within their activation — through phis,
// reloads of the activation's own spill slots, and its call sites'
// forwarding records — so the owning function and epoch are those of the
// frame whose table holds the symbol.
type sym uint8

func symOf(r isa.Reg) sym { return sym(r) + 1 }

func (s sym) reg() isa.Reg { return isa.Reg(s - 1) }

// Tracer is the instrumentation runtime of the first refinement.
type Tracer struct {
	// Rider, when set, is a tracer riding this one's replay, as core runs
	// the variadic-call refinement's: its action codes lie outside
	// regsave's, and Act, besides acting itself, passes it every site
	// with such a code and every Generic site. Fork leaves it unset.
	Rider irexec.Tracer

	// The result sets, by function. A run records into runs; fold moves
	// those tables here.
	arg      map[fnReg]bool
	violated map[fnReg]bool
	forwards map[forward]bool
	// runs holds this tracer's observations by Frame.FnIndex.
	runs []fnRun
	// shadow holds the symbols spilled to memory, by address: the storing
	// activation's epoch shifted left by 8, or'ed with the symbol (0 means
	// absent).
	shadow irexec.Shadow[uint64]
	// syms holds each live activation's symbols by value slot. The tuple
	// words of a call site hold its forwarding record: the symbol passed
	// in each register, which an extract of that register inherits.
	syms irexec.Slots[sym]
}

// fnRun is what a run observed of one function: the registers whose
// symbols it used as arguments and those it did not return intact, a bit
// per register, and at each of its call sites, by the call's slot, the
// union of the site's forwarding records: byte r of the word holds a bit
// per caller register whose symbol the site passed in callee register r.
type fnRun struct {
	fn            *ir.Func
	arg, violated uint8
	fwd           []uint64
}

// NewTracer returns an empty analysis.
func NewTracer() *Tracer {
	return &Tracer{
		arg:      make(map[fnReg]bool),
		violated: make(map[fnReg]bool),
		forwards: make(map[forward]bool),
	}
}

// SeedStatic classifies a function's registers from a static liveness
// estimate instead of traced evidence. Statically recovered cold functions
// never execute during refinement, so without seeding every register would
// keep the default Saved class — and Apply would then substitute callers'
// pre-call values for the callee's results, which is only sound when traces
// witnessed the preservation. Registers that may be read before written
// become arguments; every other register is marked violated (no preservation
// claim). Over-approximating the argument set is harmless: the callee simply
// receives (and re-exports) values it may ignore.
func (t *Tracer) SeedStatic(f *ir.Func, liveIn [isa.NumRegs]bool) {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == isa.ESP {
			continue
		}
		if liveIn[r] {
			t.arg[fnReg{f, r}] = true
		} else {
			t.violated[fnReg{f, r}] = true
		}
	}
}

// Fork returns a fresh, independent tracer for one input's run. Symbols
// and shadow entries are run-local (they are keyed by activation), so
// per-input tracers observe exactly what one shared sequential tracer
// would; the classification sets they produce merge with Join.
func (t *Tracer) Fork() irexec.Tracer { return NewTracer() }

// Join folds a forked tracer's observations into t. All three result
// structures are sets (argument uses, return-condition violations,
// forwarding constraints), so the union is order-independent and joining
// per-input tracers in any order yields the same classification as one
// tracer observing all inputs sequentially.
func (t *Tracer) Join(o irexec.Tracer) {
	ot := o.(*Tracer)
	ot.fold()
	maps.Copy(t.arg, ot.arg)
	maps.Copy(t.violated, ot.violated)
	maps.Copy(t.forwards, ot.forwards)
}

// run returns the table of fr's function, starting it on the function's
// first activation. A frame built outside the interpreter may reuse
// another function's index; the tables recorded so far are folded first.
func (t *Tracer) run(fr *irexec.Frame) *fnRun {
	i := fr.FnIndex
	if i < len(t.runs) && t.runs[i].fn == fr.Fn {
		return &t.runs[i]
	}
	if i >= len(t.runs) {
		t.runs = append(t.runs, make([]fnRun, i+1-len(t.runs))...)
	} else if t.runs[i].fn != nil {
		t.fold()
	}
	t.runs[i].fn = fr.Fn
	return &t.runs[i]
}

// fold moves the per-run tables into the result sets. A forwarding
// record's callees are the call's static ones: its callee, or every
// target of an indirect call.
func (t *Tracer) fold() {
	for i := range t.runs {
		r := &t.runs[i]
		if r.fn == nil {
			continue
		}
		for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
			if r.arg&(1<<reg) != 0 {
				t.arg[fnReg{r.fn, reg}] = true
			}
			if r.violated&(1<<reg) != 0 {
				t.violated[fnReg{r.fn, reg}] = true
			}
		}
		if r.fwd != nil {
			for _, b := range r.fn.Blocks {
				for _, v := range b.Insts {
					slot := v.Slot()
					if (v.Op == ir.OpCall || v.Op == ir.OpCallInd) && uint(slot) < uint(len(r.fwd)) && r.fwd[slot] != 0 {
						t.foldForwards(r.fn, v, r.fwd[slot])
					}
				}
			}
		}
		*r = fnRun{}
	}
}

// foldForwards adds the forwarding constraints of call site v in f, whose
// records' union is rec.
func (t *Tracer) foldForwards(f *ir.Func, v *ir.Value, rec uint64) {
	callees := v.Targets
	if v.Op == ir.OpCall {
		callees = []*ir.Func{v.Callee}
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		from := uint8(rec >> (8 * r))
		for s := isa.Reg(0); s < isa.NumRegs; s++ {
			if from&(1<<s) == 0 {
				continue
			}
			for _, c := range callees {
				t.forwards[forward{fnReg{f, s}, fnReg{c, r}}] = true
			}
		}
	}
}

const frameLimit = 1 << 16

// at returns v's symbol in the window w.
func at(w []sym, v *ir.Value) sym {
	if i := v.Slot(); uint(i) < uint(len(w)) {
		return w[i]
	}
	return 0
}

// get returns the symbol in slot i of the window w, 0 for a missing
// operand (i = -1).
func get(w []sym, i int32) sym {
	if uint(i) < uint(len(w)) {
		return w[i]
	}
	return 0
}

// markArg records an argument use of the symbol s, if any, in fr's
// function.
func (t *Tracer) markArg(fr *irexec.Frame, s sym) {
	if s != 0 {
		t.run(fr).arg |= 1 << s.reg()
	}
}

// FnEnter records the internal call that entered fr in its caller, then
// assigns symbols to the incoming registers.
func (t *Tracer) FnEnter(fr *irexec.Frame) {
	t.run(fr)
	if fr.Caller != nil {
		t.call(fr.Caller, fr.CallSite)
	}
	w := t.syms.Enter(fr)
	for _, p := range fr.Fn.Params {
		if p.RegHint != isa.ESP {
			w[p.Slot()] = symOf(p.RegHint)
		}
	}
}

// FnExit checks the second saved-register condition: the register holds its
// own symbol at return.
func (t *Tracer) FnExit(fr *irexec.Frame, ret *ir.Value, rets []uint32) {
	w := t.syms.Window(fr)
	run := t.run(fr)
	for i, a := range ret.Args {
		r := isa.Reg(i)
		if r == isa.ESP {
			continue
		}
		if at(w, a) != symOf(r) {
			run.violated |= 1 << r
		}
	}
}

func (t *Tracer) inOwnFrame(fr *irexec.Frame, addr uint32) bool {
	return addr < fr.SP0 && fr.SP0-addr <= frameLimit
}

// invalidateShadow drops every shadow entry a size-byte store at addr
// overlaps, including 4-byte entries starting up to 3 bytes below it.
func (t *Tracer) invalidateShadow(addr uint32, size uint8) {
	t.shadow.Clear(addr-3, uint32(size)+3)
}

// call observes the internal call v in fr as control enters its callee:
// an indirect call's target symbol is an argument use, and each symbol
// passed in a register joins the site's forwarding constraints (fold
// turns them into one per static callee) and is recorded in the call's
// tuple words for the extracts.
func (t *Tracer) call(fr *irexec.Frame, v *ir.Value) {
	w := t.syms.Window(fr)
	base := 0
	if v.Op == ir.OpCallInd {
		base = 1
		t.markArg(fr, at(w, v.Args[0])) // symbol used as a call target
	}
	rec := t.syms.Tuple(fr, v)
	clear(rec)
	var fwd uint64
	for i := base; i < len(v.Args); i++ {
		r := isa.Reg(i - base)
		s := at(w, v.Args[i])
		if s == 0 || r == isa.ESP {
			continue
		}
		fwd |= 1 << (8*uint(r) + uint(s.reg()))
		if int(r) < len(rec) {
			rec[r] = s
		}
	}
	if fwd != 0 {
		run := t.run(fr)
		if run.fwd == nil {
			run.fwd = make([]uint64, fr.Fn.Layout().NumSlots)
		}
		run.fwd[v.Slot()] |= fwd
	}
}

// regsave's actions.
const (
	actSpill    irexec.Action = 1 + iota // Store: A the address, B the value
	actReload                            // Load: A the address
	actExtract                           // Extract: Imm the window index of the forwarding record's word
	actPhi                               // phi move: A the incoming value
	actMarkArg                           // any other instruction with at most two operands, A and B
	actMarkArgs                          // any other instruction, its operands read from V
)

// action returns the action on v in f (on a phi move when v is the phi):
// what the Generic action does at v's site.
func action(f *ir.Func, v *ir.Value) (irexec.Action, uint32) {
	switch v.Op {
	case ir.OpPhi:
		return actPhi, 0
	case ir.OpStore:
		return actSpill, 0
	case ir.OpLoad:
		return actReload, 0
	case ir.OpCall, ir.OpCallInd:
		// Handled by the callee's FnEnter. Acting here would mark every
		// symbol passed to a callee an argument.
		return irexec.Skip, 0
	case ir.OpExtract:
		// Only an internal call's extract can inherit a symbol; any other
		// extract's slot is always zero.
		call := v.Args[0]
		if (call.Op != ir.OpCall && call.Op != ir.OpCallInd) || call.TupleOff() < 0 || v.Idx < 0 || v.Idx >= call.TupleWidth() {
			return irexec.Skip, 0
		}
		return actExtract, uint32(f.Layout().NumSlots + call.TupleOff() + v.Idx)
	}
	if len(v.Args) <= 2 {
		return actMarkArg, 0
	}
	return actMarkArgs, 0
}

// Act performs the action at one site. A code regsave does not define is
// the Rider's; regsave marks the operands' symbols as argument uses
// there, its own action on any instruction but a load, store, extract or
// internal call, and passes the site on.
func (t *Tracer) Act(fr *irexec.Frame, s *irexec.Site, args []uint32, res uint32) {
	act, imm := s.Act, s.Imm
	if act == irexec.Generic {
		if t.Rider != nil {
			t.Rider.Act(fr, s, args, res)
		}
		act, imm = action(fr.Fn, s.V)
	}
	w := t.syms.Window(fr)
	switch act {
	case irexec.Skip:
	case actSpill:
		t.markArg(fr, get(w, s.A)) // symbol used as an address
		addr := args[0]
		t.invalidateShadow(addr, s.Size)
		if sy := get(w, s.B); sy != 0 {
			if t.inOwnFrame(fr, addr) && s.Size == 4 {
				t.shadow.Set(addr, fr.Epoch<<8|uint64(sy))
			} else {
				t.markArg(fr, sy) // written somewhere else
			}
		}
	case actReload:
		t.markArg(fr, get(w, s.A))
		// Each execution recomputes the symbol: a reload that once read a
		// spill keeps nothing when it reads another address.
		w[s.Dst] = 0
		if e := t.shadow.Get(args[0]); e != 0 && e>>8 == fr.Epoch && s.Size == 4 {
			w[s.Dst] = sym(e)
		}
	case actExtract:
		w[s.Dst] = w[imm]
	case actPhi:
		if sy := get(w, s.A); sy != 0 {
			w[s.Dst] = sy
		}
	case actMarkArg:
		t.markArg(fr, get(w, s.A))
		t.markArg(fr, get(w, s.B))
	default: // actMarkArgs, or a code of the Rider's
		for _, a := range s.V.Args {
			t.markArg(fr, at(w, a))
		}
		if act != actMarkArgs && t.Rider != nil {
			t.Rider.Act(fr, s, args, res)
		}
	}
}

// Observes implements irexec.Observer with a may-hold-symbol fixpoint over
// f's SSA form. Symbols enter an activation's table only through FnEnter
// (non-ESP parameters), a phi move (from the incoming value), a 4-byte
// Load of the activation's own spill (so only in a function that stores a
// may-symbol value) and an Extract of an internal call's forwarding
// record (so only for a register whose argument may hold a symbol). Every
// other slot stays zero. Internal calls act in the callee's FnEnter, which
// always fires. Act fires at:
//
//   - Store, always (it updates the shadow);
//   - Load, when its address or its result may hold a symbol;
//   - Extract, when its result may;
//   - any other instruction but an internal call, when one of its
//     operands may (markArg);
//   - a phi move, when its incoming value may.
//
// A skipped site would read only zero symbols and write zero into a slot
// that is always zero.
func (t *Tracer) Observes(f *ir.Func) irexec.Actions {
	return &actions{f: f, may: maySymbol(f)}
}

// actions is regsave's compiled actions for one function.
type actions struct {
	f   *ir.Func
	may irexec.SlotSet // values that may hold a symbol
}

func (a *actions) Exec(v *ir.Value) (irexec.Action, uint32) {
	switch v.Op {
	case ir.OpStore:
	case ir.OpLoad:
		if !a.may.Has(v) && (len(v.Args) == 0 || !a.may.Has(v.Args[0])) {
			return irexec.Skip, 0
		}
	case ir.OpExtract:
		if !a.may.Has(v) {
			return irexec.Skip, 0
		}
	default:
		if !slices.ContainsFunc(v.Args, a.may.Has) {
			return irexec.Skip, 0
		}
	}
	return action(a.f, v)
}

func (a *actions) Phi(phi, in *ir.Value) (irexec.Action, uint32) {
	if !a.may.Has(in) {
		return irexec.Skip, 0
	}
	return actPhi, 0
}

// maySymbol returns the values of f that may hold a register symbol.
func maySymbol(f *ir.Func) irexec.SlotSet {
	may := irexec.NewSlotSet(f)
	for _, p := range f.Params {
		if p.RegHint != isa.ESP {
			may.Add(p)
		}
	}
	for changed := true; changed; {
		changed = false
		// Spills carry symbols to reloads: any 4-byte load may read one
		// once the function stores a may-symbol value.
		spills := false
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op == ir.OpStore && len(v.Args) > 1 && may.Has(v.Args[1]) {
					spills = true
				}
			}
		}
		for _, b := range f.Blocks {
			for _, phi := range b.Phis {
				for _, a := range phi.Args {
					if a != nil && may.Has(a) {
						changed = may.Add(phi) || changed
						break
					}
				}
			}
			for _, v := range b.Insts {
				switch v.Op {
				case ir.OpLoad:
					if spills && v.Size == 4 {
						changed = may.Add(v) || changed
					}
				case ir.OpExtract:
					if len(v.Args) > 0 && forwards(v.Args[0], v.Idx, may) {
						changed = may.Add(v) || changed
					}
				}
			}
		}
	}
	return may
}

// forwards reports whether call's forwarding record may hold a symbol in
// register idx: call is an internal call whose argument for that register
// may hold one.
func forwards(call *ir.Value, idx int, may irexec.SlotSet) bool {
	base := 0
	switch call.Op {
	case ir.OpCall:
	case ir.OpCallInd:
		base = 1
	default:
		return false
	}
	i := base + idx
	return idx >= 0 && isa.Reg(idx) != isa.ESP && i < len(call.Args) && may.Has(call.Args[i])
}

// Classes holds the per-function classification of every register.
type Classes map[*ir.Func]*[isa.NumRegs]Class

// Classify resolves the forwarded-register constraints and produces the
// final classification for every function in the module. Indirect-call
// target groups are unified so they share one signature.
func (t *Tracer) Classify(mod *ir.Module) Classes {
	t.fold()
	out := make(Classes, len(mod.Funcs))
	state := make(map[fnReg]Class)
	for _, f := range mod.Funcs {
		out[f] = new([isa.NumRegs]Class)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			k := fnReg{f, r}
			switch {
			case t.arg[k]:
				state[k] = Arg
			case t.violated[k]:
				state[k] = Other
			default:
				state[k] = Saved
			}
		}
	}
	// Constraint propagation: a forwarder joins the class of each function
	// it forwards to.
	for changed := true; changed; {
		changed = false
		for fw := range t.forwards {
			if state[fw.to] > state[fw.from] {
				state[fw.from] = state[fw.to]
				changed = true
			}
		}
	}
	// Unify indirect-call groups.
	for _, g := range mod.IndirectGroups() {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			var max Class
			for _, f := range g {
				if c := state[fnReg{f, r}]; c > max {
					max = c
				}
			}
			for _, f := range g {
				state[fnReg{f, r}] = max
			}
		}
	}
	for _, f := range mod.Funcs {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			out[f][r] = state[fnReg{f, r}]
		}
	}
	return out
}

// ParamRegs returns the registers a function keeps as parameters under a
// classification (ESP plus the argument registers), ascending.
func ParamRegs(c *[isa.NumRegs]Class) []isa.Reg {
	var out []isa.Reg
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == isa.ESP || c[r] == Arg {
			out = append(out, r)
		}
	}
	return out
}

// Apply rewrites the module under the classification: shrink parameter
// lists, replace saved-register extracts with the caller's pre-call values,
// compute the demanded return registers, and shrink return tuples.
func Apply(mod *ir.Module, classes Classes) error {
	// 1. Caller side: extracts of saved registers use the pre-call value.
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op != ir.OpExtract {
					continue
				}
				call := v.Args[0]
				cls := calleeClasses(call, classes)
				if cls == nil {
					continue
				}
				r := isa.Reg(v.Idx)
				if r != isa.ESP && cls[r] == Saved {
					base := 0
					if call.Op == ir.OpCallInd {
						base = 1
					}
					opt.ReplaceUses(f, v, call.Args[base+v.Idx])
				}
			}
		}
	}
	opt.DCEModule(mod)

	// 2. Demand analysis for return registers.
	rets := make(map[*ir.Func]map[isa.Reg]bool, len(mod.Funcs))
	for _, f := range mod.Funcs {
		rets[f] = map[isa.Reg]bool{isa.EAX: true, isa.ESP: true}
	}
	usesByFunc := make([]ir.Uses, len(mod.Funcs))
	for i, f := range mod.Funcs {
		usesByFunc[i] = ir.BuildUses(f)
	}
	for changed := true; changed; {
		changed = false
		for i, f := range mod.Funcs {
			uses := usesByFunc[i]
			for _, b := range f.Blocks {
				for _, v := range b.Insts {
					if v.Op != ir.OpExtract {
						continue
					}
					call := v.Args[0]
					var targets []*ir.Func
					switch call.Op {
					case ir.OpCall:
						targets = []*ir.Func{call.Callee}
					case ir.OpCallInd:
						targets = call.Targets
					default:
						continue
					}
					r := isa.Reg(v.Idx)
					demanded := false
					for _, u := range uses.Of(v) {
						if u.Op != ir.OpRet {
							demanded = true
							break
						}
						// Pass-through: demanded iff the forwarding
						// function itself returns that register slot.
						for j, a := range u.Args {
							if a == v && rets[f][isa.Reg(j)] {
								demanded = true
							}
						}
						if demanded {
							break
						}
					}
					if !demanded {
						continue
					}
					for _, tgt := range targets {
						if !rets[tgt][r] {
							rets[tgt][r] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// 3. Rewrite signatures, returns, calls and extracts.
	newParamRegs := make(map[*ir.Func][]isa.Reg)
	newRetRegs := make(map[*ir.Func][]isa.Reg)
	for _, f := range mod.Funcs {
		newParamRegs[f] = ParamRegs(classes[f])
		var rr []isa.Reg
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if rets[f][r] {
				rr = append(rr, r)
			}
		}
		newRetRegs[f] = rr
	}
	for _, f := range mod.Funcs {
		// Parameters.
		keep := map[isa.Reg]bool{}
		for _, r := range newParamRegs[f] {
			keep[r] = true
		}
		var params []*ir.Value
		entry := f.Entry()
		var dropped []*ir.Value
		for _, p := range f.Params {
			if keep[p.RegHint] {
				p.Idx = len(params)
				params = append(params, p)
			} else {
				// The save/restore stores still reference the old value;
				// it becomes an arbitrary constant (the register is dead
				// from the caller's point of view).
				p.Op = ir.OpConst
				p.Const = 0
				p.Block = entry
				dropped = append(dropped, p)
			}
		}
		f.Params = params
		if len(dropped) > 0 {
			entry.Insts = append(dropped, entry.Insts...)
		}
		// Returns.
		retKeep := newRetRegs[f]
		f.NumRet = len(retKeep)
		f.RetRegs = retKeep
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpRet {
				continue
			}
			var args []*ir.Value
			for _, r := range retKeep {
				args = append(args, t.Args[r])
			}
			t.Args = args
		}
	}
	// Call sites.
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				switch v.Op {
				case ir.OpCall, ir.OpCallInd:
					cls := calleeClasses(v, classes)
					if cls == nil {
						return fmt.Errorf("regsave: call %s without classification", v)
					}
					var callee *ir.Func
					if v.Op == ir.OpCall {
						callee = v.Callee
					} else {
						callee = v.Targets[0]
					}
					base := 0
					var args []*ir.Value
					if v.Op == ir.OpCallInd {
						base = 1
						args = append(args, v.Args[0])
					}
					for _, r := range newParamRegs[callee] {
						args = append(args, v.Args[base+int(r)])
					}
					v.Args = args
					v.NumRet = len(newRetRegs[callee])
				case ir.OpExtract:
					call := v.Args[0]
					var callee *ir.Func
					switch call.Op {
					case ir.OpCall:
						callee = call.Callee
					case ir.OpCallInd:
						callee = call.Targets[0]
					default:
						continue
					}
					// Map old register index to new tuple index.
					r := isa.Reg(v.Idx)
					idx := -1
					for i, rr := range newRetRegs[callee] {
						if rr == r {
							idx = i
							break
						}
					}
					if idx < 0 {
						// Must be unused (not demanded); make it inert.
						v.Op = ir.OpConst
						v.Const = 0
						v.Args = nil
					} else {
						v.Idx = idx
					}
				}
			}
		}
	}
	opt.DCEModule(mod)
	return ir.Verify(mod)
}

func calleeClasses(call *ir.Value, classes Classes) *[isa.NumRegs]Class {
	switch call.Op {
	case ir.OpCall:
		return classes[call.Callee]
	case ir.OpCallInd:
		if len(call.Targets) == 0 {
			return nil
		}
		return classes[call.Targets[0]]
	}
	return nil
}
