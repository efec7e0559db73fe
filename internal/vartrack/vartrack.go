// Package vartrack is the tracing runtime of the paper's second refinement
// (§4.2, Figure 5): object-bounds recovery. Every direct stack reference
// identified by the stack-reference refinement becomes the base pointer of a
// candidate StackVar. As the instrumented program runs, the runtime tracks
// pointer metadata — which StackVar a value refers to and at what offset —
// through the core tracing operations:
//
//	derive   pointer ± constant (and alignment ANDs)
//	derive2  pointer ± non-constant (the known-pointer operand wins)
//	link     pointer difference / pointer comparison: same object
//	store    record pointers written to memory in the address map; bound
//	         updates for the stored-through pointer
//	load     bound updates; pointers read back from memory regain metadata
//	copy     phi nodes propagate metadata
//
// Bounds follow the paper's deferred rules exactly: a StackVar's bounds stay
// undefined until a pointer associated with it is dereferenced (§4.2.4
// handles out-of-bound base pointers such as loop end pointers); sub-register
// writes propagate metadata but never update bounds (§4.2.3 false derives);
// linking merges ranges only when both sides have defined bounds. Calls
// marshal metadata between frames (fnenter/fnexit); accesses at or above a
// frame's sp0 are recorded as stack-argument accesses for signature
// recovery (§4.2.5); external functions apply the constraint database of
// §5.3.
package vartrack

import (
	"fmt"
	"math/bits"
	"sort"

	"wytiwyg/internal/extdb"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/stackref"
)

// StackVar records the observed extent of one candidate stack variable. It
// is keyed by the static base-pointer value, not by address, so one
// StackVar serves every activation in recursive call chains.
type StackVar struct {
	ID int      // stable variable number (assignment order)
	Fn *ir.Func // owning function
	// SPOff is the base pointer's displacement from its function's sp0.
	SPOff int32
	// Bounds relative to the base pointer; undefined until the first
	// dereference through any associated pointer.
	Defined   bool
	Low, High int32 // see Defined
	// Align is the strongest alignment observed through AND masking (0 =
	// none).
	Align uint32
}

// AbsRange returns the variable's extent relative to sp0.
func (v *StackVar) AbsRange() (lo, hi int32) {
	return v.SPOff + v.Low, v.SPOff + v.High
}

func (v *StackVar) String() string {
	if !v.Defined {
		return fmt.Sprintf("var%d@%d(undef)", v.ID, v.SPOff)
	}
	return fmt.Sprintf("var%d@%d[%d,%d)", v.ID, v.SPOff, v.Low, v.High)
}

// ptr is a value's pointer metadata: the StackVar it points into, by ID
// plus one (0: the value is no known pointer), and its displacement from
// the variable's base. It holds no Go pointer, so the slot tables and the
// address map cost the garbage collector nothing.
type ptr struct {
	id  int32
	off int32
}

// Result is everything symbolization needs.
type Result struct {
	// Vars maps each base-pointer value to its StackVar.
	Vars map[*ir.Value]*StackVar
	// ByFn groups the variables per function.
	ByFn map[*ir.Func][]*StackVar
	// Linked holds pairs of variables that belong to the same object.
	Linked [][2]*StackVar
	// ArgSlots records, per function, the incoming stack-argument slots
	// (index i ↔ sp0+4+4i) observed to be accessed.
	ArgSlots map[*ir.Func]map[int]bool
}

// Tracer is the §4.2 instrumentation runtime.
type Tracer struct {
	offs map[*ir.Func]stackref.Offsets

	res *Result
	// vars holds the StackVars by ID; order remembers their base-pointer
	// values, so Join can renumber a forked tracer's variables exactly as
	// a sequential run would have.
	vars  []*StackVar
	order []*ir.Value
	// argSlots holds, by StackVar ID, the incoming stack-argument slots
	// its accesses touched, a bit per slot; Result turns them into
	// Result.ArgSlots.
	argSlots [][]uint64
	// addrMap records the pointers stored to memory, by address.
	addrMap irexec.Shadow[ptr]
	// pis holds each live activation's pointer metadata by value slot. The
	// tuple words of a call site hold the metadata of the callee's return
	// values, for the extracts.
	pis irexec.Slots[ptr]

	// tabs holds the direct-reference table of each executed function, by
	// Frame.FnIndex, built on its first activation.
	tabs []fnTable
}

// fnTable is one function's direct-reference table, indexed by
// Value.Slot.
type fnTable struct {
	fn   *ir.Func
	refs []directRef
}

// directRef is one slot of a function's direct-reference table: whether
// the value is a direct stack reference, its sp0 displacement, and the ID
// plus one of its StackVar. The variable is allocated on the value's
// first execution (exactly when an uncached lookup would allocate it); id
// is 0 until then.
type directRef struct {
	ok  bool
	off int32
	id  int32
}

// NewTracer builds the runtime over the direct-reference table produced by
// the stack-reference refinement.
func NewTracer(offs map[*ir.Func]stackref.Offsets) *Tracer {
	return &Tracer{
		offs: offs,
		res: &Result{
			Vars: make(map[*ir.Value]*StackVar),
			ByFn: make(map[*ir.Func][]*StackVar),
		},
	}
}

// Result returns the accumulated analysis results.
func (t *Tracer) Result() *Result {
	t.res.ArgSlots = make(map[*ir.Func]map[int]bool)
	for id, words := range t.argSlots {
		fn := t.vars[id].Fn
		for i, word := range words {
			for ; word != 0; word &= word - 1 {
				slots := t.res.ArgSlots[fn]
				if slots == nil {
					slots = make(map[int]bool)
					t.res.ArgSlots[fn] = slots
				}
				slots[64*i+bits.TrailingZeros64(word)] = true
			}
		}
	}
	return t.res
}

// varFor returns (allocating on demand) the StackVar of a base pointer.
func (t *Tracer) varFor(fn *ir.Func, v *ir.Value, spoff int32) *StackVar {
	if sv, ok := t.res.Vars[v]; ok {
		return sv
	}
	sv := &StackVar{ID: len(t.vars), Fn: fn, SPOff: spoff}
	t.vars = append(t.vars, sv)
	t.argSlots = append(t.argSlots, nil)
	t.res.Vars[v] = sv
	t.res.ByFn[fn] = append(t.res.ByFn[fn], sv)
	t.order = append(t.order, v)
	return sv
}

// Fork returns a fresh tracer over the same direct-reference table for one
// input's run. Each fork tracks its own StackVars, address map and slot
// tables; Join folds the fork's observations back.
func (t *Tracer) Fork() irexec.Tracer { return NewTracer(t.offs) }

// Join merges a forked tracer's result into t. StackVars are keyed by
// their static base-pointer value, so the fork's variables map onto t's by
// identity: bounds union (the §4.2.4 deferred rules are interval joins,
// which commute), alignment takes the strongest observation, and linked
// pairs and argument slots accumulate. Joining forks in input order
// allocates IDs in exactly the order one sequential tracer observing the
// same inputs back-to-back would have, which keeps downstream coalescing
// deterministic in the worker count.
func (t *Tracer) Join(o irexec.Tracer) {
	ot := o.(*Tracer)
	remap := make(map[*StackVar]*StackVar, len(ot.order))
	for _, base := range ot.order {
		osv := ot.res.Vars[base]
		sv := t.varFor(osv.Fn, base, osv.SPOff)
		remap[osv] = sv
		if osv.Defined {
			if !sv.Defined {
				sv.Defined = true
				sv.Low, sv.High = osv.Low, osv.High
			} else {
				if osv.Low < sv.Low {
					sv.Low = osv.Low
				}
				if osv.High > sv.High {
					sv.High = osv.High
				}
			}
		}
		if osv.Align > sv.Align {
			sv.Align = osv.Align
		}
		for i, word := range ot.argSlots[osv.ID] {
			t.argWord(sv.ID, i, word)
		}
	}
	for _, pair := range ot.res.Linked {
		t.res.Linked = append(t.res.Linked, [2]*StackVar{remap[pair[0]], remap[pair[1]]})
	}
}

// argWord sets the argument-slot bits word in word i of variable id's set.
func (t *Tracer) argWord(id, i int, word uint64) {
	words := t.argSlots[id]
	if i >= len(words) {
		words = append(words, make([]uint64, i+1-len(words))...)
		t.argSlots[id] = words
	}
	words[i] |= word
}

// at returns v's pointer metadata in the window w.
func at(w []ptr, v *ir.Value) ptr {
	if i := v.Slot(); uint(i) < uint(len(w)) {
		return w[i]
	}
	return ptr{}
}

// get returns the metadata in slot i of the window w, none for a missing
// operand (i = -1).
func get(w []ptr, i int32) ptr {
	if uint(i) < uint(len(w)) {
		return w[i]
	}
	return ptr{}
}

// varOf returns the StackVar p points into; p must be a pointer.
func (t *Tracer) varOf(p ptr) *StackVar { return t.vars[p.id-1] }

// table returns the direct-reference table of fr's function (nil refs
// when it has none), building it on the function's first activation. A
// frame built outside the interpreter may reuse another function's
// index, which rebuilds the entry. Slots index the layout the function
// executes under; the module must not change while the tracer observes
// it, which holds for a refinement replay.
func (t *Tracer) table(fr *irexec.Frame) []directRef {
	i := fr.FnIndex
	if i < len(t.tabs) && t.tabs[i].fn == fr.Fn {
		return t.tabs[i].refs
	}
	if i >= len(t.tabs) {
		t.tabs = append(t.tabs, make([]fnTable, i+1-len(t.tabs))...)
	}
	t.tabs[i] = fnTable{fn: fr.Fn, refs: buildTable(fr.Fn, t.offs[fr.Fn])}
	return t.tabs[i].refs
}

// base returns the base-pointer metadata of the direct reference v in
// slot i of fr's function, allocating its StackVar on the first
// execution.
func (t *Tracer) base(fr *irexec.Frame, v *ir.Value, i int32) ptr {
	d := &t.tabs[fr.FnIndex].refs[i]
	if d.id == 0 {
		d.id = int32(t.varFor(fr.Fn, v, d.off).ID) + 1
	}
	return ptr{id: d.id}
}

// buildTable indexes f's live direct references by slot. It walks the
// function rather than the offsets table, so values removed from f (whose
// stale slots may collide with live ones) never enter the table.
func buildTable(f *ir.Func, offs stackref.Offsets) []directRef {
	if len(offs) == 0 {
		return nil
	}
	f.EnsureLayout()
	tab := make([]directRef, f.Layout().NumSlots)
	add := func(v *ir.Value) {
		if c, ok := offs[v]; ok {
			tab[v.Slot()] = directRef{ok: true, off: c}
		}
	}
	for _, p := range f.Params {
		add(p)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			add(v)
		}
		for _, v := range b.Insts {
			add(v)
		}
	}
	return tab
}

// vartrack's actions. The derive family's codes name the operation, for
// the rules that differ between them.
const (
	actBase       irexec.Action = 1 + iota // a direct stack reference: the base pointer of its own variable
	actAdd                                 // derive through an Add, A and B
	actSub                                 // derive through a Sub; link a pointer difference
	actAnd                                 // derive through an And; Imm a constant operand's value (the alignment mask), or 0
	actSubreg8                             // derive through a Subreg8
	actLink                                // Cmp: A and B belong to the same object
	actLoad                                // Load: A the address
	actStore                               // Store: A the address, B the value
	actExtract                             // Extract of an internal call: Imm the window index of the tuple word
	actExtractExt                          // Extract of an external call's result: A the call
	actExtCall                             // CallExt: the §5.3 constraint database, operands read from V
	actClear                               // any other observed instruction: its metadata is none
	actPhi                                 // phi move: A the incoming value
)

// action returns the action on v in f (on a phi move when v is the phi),
// given whether v is a direct reference: what the Generic action does at
// v's site.
func action(f *ir.Func, v *ir.Value, direct bool) (irexec.Action, uint32) {
	if direct {
		// Direct stack references are base pointers of their own
		// variables and are never treated as derived (§4.1 produced them;
		// §4.2 starts here).
		return actBase, 0
	}
	switch v.Op {
	case ir.OpPhi:
		return actPhi, 0
	case ir.OpAdd:
		return actAdd, 0
	case ir.OpSub:
		return actSub, 0
	case ir.OpAnd:
		for _, a := range v.Args[:min(len(v.Args), 2)] {
			if a.Op == ir.OpConst {
				return actAnd, uint32(a.Const)
			}
		}
		return actAnd, 0
	case ir.OpSubreg8:
		return actSubreg8, 0
	case ir.OpCmp:
		return actLink, 0
	case ir.OpLoad:
		return actLoad, 0
	case ir.OpStore:
		return actStore, 0
	case ir.OpExtract:
		switch call := v.Args[0]; call.Op {
		case ir.OpCallExt, ir.OpCallExtRaw:
			// External calls carry their (single) result metadata
			// directly on the call value (the DeriveRet constraint).
			if v.Idx == 0 {
				return actExtractExt, 0
			}
		case ir.OpCall, ir.OpCallInd:
			if call.TupleOff() >= 0 && v.Idx >= 0 && v.Idx < call.TupleWidth() {
				return actExtract, uint32(f.Layout().NumSlots + call.TupleOff() + v.Idx)
			}
		}
	case ir.OpCallExt:
		return actExtCall, 0
	}
	return actClear, 0
}

// Observes implements irexec.Observer with a may-hold-pointer fixpoint
// over f's SSA form. Pointer metadata enters an activation's table only
// for parameters, direct references, Add/Sub/And/Subreg8 with a may
// operand, phis of may values, 4-byte loads (from the address map),
// extracts (from a call's returned metadata) and CallExt (the DeriveRet
// constraint); every other slot stays zero. Act fires at:
//
//   - direct references, Store, CallExt, CallExtRaw and Extract, always;
//   - Load, when its address or its result may hold a pointer;
//   - Cmp, when both operands may (link);
//   - Add, Sub, And and Subreg8, when the result may;
//   - a phi move, when the phi is a direct reference or may hold a
//     pointer;
//
// and nowhere else. A skipped site would read only zero metadata and
// write zero into a slot that is always zero. The actions depend only on
// the direct-reference table, so they hold for every fork.
func (t *Tracer) Observes(f *ir.Func) irexec.Actions {
	direct := irexec.NewSlotSet(f)
	for i, d := range buildTable(f, t.offs[f]) {
		direct[i] = d.ok
	}
	return &actions{f: f, direct: direct, may: mayPointer(f, direct)}
}

// derives reports whether op propagates a pointer operand's metadata.
func derives(op ir.Op) bool {
	return op == ir.OpAdd || op == ir.OpSub || op == ir.OpAnd || op == ir.OpSubreg8
}

// mayPointer returns the values of f that may hold pointer metadata, given
// its direct references.
func mayPointer(f *ir.Func, direct irexec.SlotSet) irexec.SlotSet {
	may := append(irexec.SlotSet(nil), direct...)
	for _, p := range f.Params {
		may.Add(p)
	}
	for changed := true; changed; {
		changed = false
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
				switch {
				case v.Op == ir.OpLoad && v.Size == 4, v.Op == ir.OpExtract, v.Op == ir.OpCallExt:
				case derives(v.Op) && len(v.Args) > 1 && (may.Has(v.Args[0]) || may.Has(v.Args[1])):
				default:
					continue
				}
				changed = may.Add(v) || changed
			}
		}
	}
	return may
}

// actions is vartrack's compiled actions for one function.
type actions struct {
	f      *ir.Func
	direct irexec.SlotSet // direct references
	may    irexec.SlotSet // values that may hold pointer metadata
}

func (a *actions) Exec(v *ir.Value) (irexec.Action, uint32) {
	switch {
	case a.direct.Has(v):
	case v.Op == ir.OpStore, v.Op == ir.OpCallExt, v.Op == ir.OpCallExtRaw, v.Op == ir.OpExtract:
	case v.Op == ir.OpLoad && (a.may.Has(v) || len(v.Args) > 0 && a.may.Has(v.Args[0])):
	case v.Op == ir.OpCmp && len(v.Args) > 1 && a.may.Has(v.Args[0]) && a.may.Has(v.Args[1]):
	case derives(v.Op) && a.may.Has(v):
	default:
		return irexec.Skip, 0
	}
	return action(a.f, v, a.direct.Has(v))
}

func (a *actions) Phi(phi, in *ir.Value) (irexec.Action, uint32) {
	if !a.may.Has(phi) {
		return irexec.Skip, 0
	}
	return action(a.f, phi, a.direct.Has(phi))
}

func (t *Tracer) link(a, b ptr) {
	if a.id == b.id {
		return
	}
	t.res.Linked = append(t.res.Linked, [2]*StackVar{t.varOf(a), t.varOf(b)})
}

// invalidate drops every recorded pointer a size-byte store at addr
// overlaps, including 4-byte entries starting up to 3 bytes below it.
func (t *Tracer) invalidate(addr uint32, size uint8) {
	t.addrMap.Clear(addr-3, uint32(size)+3)
}

// FnEnter is fnenter: it binds the metadata of the call's arguments, read
// from the caller's table, to the parameters; a parameter that is a direct
// reference (the ESP parameter) is the frame's own sp0 base pointer.
func (t *Tracer) FnEnter(fr *irexec.Frame) {
	var caller []ptr
	var args []*ir.Value
	if call := fr.CallSite; call != nil {
		caller, args = t.pis.Window(fr.Caller), call.Args
		if call.Op == ir.OpCallInd {
			args = args[1:]
		}
	}
	tab := t.table(fr)
	w := t.pis.Enter(fr)
	for i, p := range fr.Fn.Params {
		if s := p.Slot(); s < len(tab) && tab[s].ok {
			w[s] = t.base(fr, p, int32(s))
		} else if i < len(args) {
			w[s] = at(caller, args[i])
		}
	}
}

// FnExit is fnexit: it writes the returned values' metadata into the
// call's tuple words in the caller's table, for the extracts.
func (t *Tracer) FnExit(fr *irexec.Frame, ret *ir.Value, rets []uint32) {
	if fr.Caller == nil {
		return
	}
	w := t.pis.Window(fr)
	tup := t.pis.Tuple(fr.Caller, fr.CallSite)
	clear(tup)
	for i, a := range ret.Args[:min(len(ret.Args), len(tup))] {
		tup[i] = at(w, a)
	}
}

// Act dispatches the core tracing operations.
func (t *Tracer) Act(fr *irexec.Frame, s *irexec.Site, args []uint32, res uint32) {
	act, imm := s.Act, s.Imm
	if act == irexec.Generic {
		tab := t.table(fr)
		act, imm = action(fr.Fn, s.V, s.Dst < int32(len(tab)) && tab[s.Dst].ok)
	}
	w := t.pis.Window(fr)
	switch act {
	case actBase:
		// Only this action writes the slot, always the same base pointer,
		// so a repeat execution in the activation (a loop) finds it set.
		if w[s.Dst].id == 0 {
			w[s.Dst] = t.base(fr, s.V, s.Dst)
		}
	case actPhi:
		w[s.Dst] = get(w, s.A)
	case actAdd, actSub, actAnd, actSubreg8:
		// Each execution recomputes the metadata from scratch (loops).
		w[s.Dst] = ptr{}
		a, b := get(w, s.A), get(w, s.B)
		switch {
		case a.id != 0 && b.id != 0:
			if act == actSub {
				// Pointer difference: both operands belong to the same
				// object (link).
				t.link(a, b)
			}
			// ptr+ptr or ptr&ptr: result is no pointer.
		case a.id != 0:
			// derive/derive2: offset advances by the value delta, which is
			// exact for every arithmetic form.
			w[s.Dst] = ptr{id: a.id, off: a.off + int32(res-args[0])}
			if act == actAnd {
				t.align(a, imm)
			}
		case b.id != 0 && (act == actAdd || act == actAnd):
			w[s.Dst] = ptr{id: b.id, off: b.off + int32(res-args[1])}
			if act == actAnd {
				t.align(b, imm)
			}
		}
	case actLink:
		if a, b := get(w, s.A), get(w, s.B); a.id != 0 && b.id != 0 {
			t.link(a, b)
		}
	case actLoad:
		w[s.Dst] = ptr{}
		if p := get(w, s.A); p.id != 0 {
			t.boundRange(p, int64(s.Size))
		}
		if e := t.addrMap.Get(args[0]); e.id != 0 && s.Size == 4 {
			w[s.Dst] = e
		}
	case actStore:
		addr := args[0]
		if p := get(w, s.A); p.id != 0 {
			t.boundRange(p, int64(s.Size))
		}
		t.invalidate(addr, s.Size)
		if p := get(w, s.B); p.id != 0 && s.Size == 4 {
			t.addrMap.Set(addr, p)
		}
	case actExtract:
		w[s.Dst] = w[imm]
	case actExtractExt:
		w[s.Dst] = get(w, s.A)
	case actExtCall:
		w[s.Dst] = ptr{}
		t.extCall(fr, w, s.V, args, res)
	case actClear:
		w[s.Dst] = ptr{}
	}
}

// align records the alignment an AND with mask imposes on p's variable. A
// mask that is no alignment (0 among them) records nothing.
func (t *Tracer) align(p ptr, mask uint32) {
	if al, sv := alignOf(mask), t.varOf(p); al > sv.Align {
		sv.Align = al
	}
}

func alignOf(mask uint32) uint32 {
	// A mask like 0xFFFFFFF0 aligns to 16.
	inv := ^mask
	if inv == 0 || (inv+1)&inv != 0 {
		return 0
	}
	return inv + 1
}

// extCall applies the §5.3 constraint database.
func (t *Tracer) extCall(fr *irexec.Frame, w []ptr, v *ir.Value, args []uint32, res uint32) {
	sig, ok := extdb.Lookup(v.Sym)
	if !ok {
		return
	}
	argPI := func(i int) ptr {
		if i < 0 || i >= len(v.Args) {
			return ptr{}
		}
		return at(w, v.Args[i])
	}
	argVal := func(i int) uint32 {
		if i < 0 || i >= len(args) {
			return 0
		}
		return args[i]
	}
	cstrLen := func(addr uint32) int32 {
		s, err := fr.Mem.CString(addr)
		if err != nil {
			return 0
		}
		return int32(len(s))
	}
	for _, eff := range sig.Effects {
		switch eff.Kind {
		case extdb.ObjectSize:
			if p := argPI(eff.A); p.id != 0 {
				size := int64(argVal(eff.B))
				if eff.C >= 0 {
					size *= int64(argVal(eff.C))
				}
				t.boundRange(p, size)
			}
		case extdb.ZeroTerminated:
			if p := argPI(eff.A); p.id != 0 {
				t.boundRange(p, int64(cstrLen(argVal(eff.A)))+1)
			}
		case extdb.DeriveRet:
			if p := argPI(eff.A); p.id != 0 && res != 0 {
				w[v.Slot()] = ptr{id: p.id, off: p.off + int32(res-argVal(eff.A))}
			}
		case extdb.Clear:
			var n int64
			if eff.B >= 0 {
				n = int64(argVal(eff.B))
			} else {
				n = int64(cstrLen(argVal(eff.A))) + 1
			}
			// The external function writes n bytes through the pointer:
			// that bounds the object like any other store.
			if p := argPI(eff.A); p.id != 0 {
				t.boundRange(p, n)
			}
			if n > 0 {
				t.addrMap.Clear(argVal(eff.A), uint32(n))
			}
		case extdb.Copy:
			var n int64
			if eff.C >= 0 {
				n = int64(argVal(eff.C))
			} else {
				n = int64(cstrLen(argVal(eff.B))) + 1
			}
			// n bytes are read from src and written to dst.
			if p := argPI(eff.A); p.id != 0 {
				t.boundRange(p, n)
			}
			if p := argPI(eff.B); p.id != 0 {
				t.boundRange(p, n)
			}
			dst, src := argVal(eff.A), argVal(eff.B)
			for i := int64(0); i+3 < n; i += 4 {
				if e := t.addrMap.Get(src + uint32(i)); e.id != 0 {
					t.addrMap.Set(dst+uint32(i), e)
				} else {
					t.addrMap.Clear(dst+uint32(i), 1)
				}
			}
		case extdb.FormatStr:
			// %s arguments are NUL-terminated reads of their objects.
			format, err := fr.Mem.CString(argVal(eff.A))
			if err != nil {
				continue
			}
			argIdx := eff.A + 1
			for i := 0; i < len(format); i++ {
				if format[i] != '%' || i+1 >= len(format) {
					continue
				}
				i++
				if format[i] == '%' {
					continue
				}
				if format[i] == 's' {
					if p := argPI(argIdx); p.id != 0 {
						t.boundRange(p, int64(cstrLen(argVal(argIdx)))+1)
					}
				}
				argIdx++
			}
		}
	}
}

// boundRange widens bounds for an n-byte access through p. Accesses at
// non-negative offsets anchor the object at its base pointer (the paper's
// Figure 2 example: an access at offset 16 of size 4 records the interval
// [0,20)); accesses at negative offsets do NOT pull the base in, so an
// out-of-bounds base pointer such as a loop end pointer never inflates the
// object past its true extent (§4.2.4).
func (t *Tracer) boundRange(p ptr, n int64) {
	if n <= 0 {
		return
	}
	v := t.varOf(p)
	lo, hi := p.off, p.off+int32(n)
	if lo > 0 {
		lo = 0
	}
	if !v.Defined {
		v.Defined = true
		v.Low, v.High = lo, hi
	} else {
		if lo < v.Low {
			v.Low = lo
		}
		if hi > v.High {
			v.High = hi
		}
	}
	if v.SPOff+p.off >= 4 {
		// The argument slots the bytes [SPOff+lo, SPOff+hi) touch, one per
		// 4-byte word at sp0+4 and above.
		first, last := (max(v.SPOff+lo, 4)-4)/4, (v.SPOff+hi-1-4)/4
		for i := first; i <= last; i++ {
			t.argWord(v.ID, int(i/64), 1<<(i%64))
		}
	}
}

// SortedVars returns a function's variables ordered by sp0 offset, for
// deterministic processing.
func (r *Result) SortedVars(f *ir.Func) []*StackVar {
	vars := append([]*StackVar(nil), r.ByFn[f]...)
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].SPOff != vars[j].SPOff {
			return vars[i].SPOff < vars[j].SPOff
		}
		return vars[i].ID < vars[j].ID
	})
	return vars
}
