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
	// addrMap records the pointers stored to memory, by address.
	addrMap irexec.Shadow[ptr]
	// pis holds each live activation's pointer metadata by value slot. The
	// tuple words of a call site hold the metadata of the callee's return
	// values, for the extracts.
	pis irexec.Slots[ptr]

	// tabs holds each executed function's direct-reference table, built on
	// first use; lastFn/lastTab memoize the most recent lookup.
	tabs    map[*ir.Func][]directRef
	lastFn  *ir.Func
	lastTab []directRef
}

// directRef is one slot of a function's direct-reference table, indexed by
// Value.Slot: whether the value is a direct stack reference, its sp0
// displacement, and the ID plus one of its StackVar. The variable is
// allocated on the value's first execution (exactly when an uncached
// lookup would allocate it); id is 0 until then.
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
			Vars:     make(map[*ir.Value]*StackVar),
			ByFn:     make(map[*ir.Func][]*StackVar),
			ArgSlots: make(map[*ir.Func]map[int]bool),
		},
		tabs: make(map[*ir.Func][]directRef),
	}
}

// Result returns the accumulated analysis results.
func (t *Tracer) Result() *Result { return t.res }

// varFor returns (allocating on demand) the StackVar of a base pointer.
func (t *Tracer) varFor(fn *ir.Func, v *ir.Value, spoff int32) *StackVar {
	if sv, ok := t.res.Vars[v]; ok {
		return sv
	}
	sv := &StackVar{ID: len(t.vars), Fn: fn, SPOff: spoff}
	t.vars = append(t.vars, sv)
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
	}
	for _, pair := range ot.res.Linked {
		t.res.Linked = append(t.res.Linked, [2]*StackVar{remap[pair[0]], remap[pair[1]]})
	}
	for fn, slots := range ot.res.ArgSlots {
		dst := t.res.ArgSlots[fn]
		if dst == nil {
			dst = make(map[int]bool, len(slots))
			t.res.ArgSlots[fn] = dst
		}
		for s := range slots {
			dst[s] = true
		}
	}
}

// at returns v's pointer metadata in the window w.
func at(w []ptr, v *ir.Value) ptr {
	if i := v.Slot(); uint(i) < uint(len(w)) {
		return w[i]
	}
	return ptr{}
}

// varOf returns the StackVar p points into; p must be a pointer.
func (t *Tracer) varOf(p ptr) *StackVar { return t.vars[p.id-1] }

// direct returns the base-pointer metadata when v is a direct stack
// reference of the executing function.
func (t *Tracer) direct(fr *irexec.Frame, v *ir.Value) (ptr, bool) {
	tab := t.lastTab
	if fr.Fn != t.lastFn {
		tab = t.table(fr.Fn)
	}
	if i := v.Slot(); uint(i) >= uint(len(tab)) || !tab[i].ok {
		return ptr{}, false
	}
	return t.base(fr, v, &tab[v.Slot()]), true
}

// base returns the base-pointer metadata of the direct reference v,
// allocating its StackVar on the first execution.
func (t *Tracer) base(fr *irexec.Frame, v *ir.Value, d *directRef) ptr {
	if d.id == 0 {
		d.id = int32(t.varFor(fr.Fn, v, d.off).ID) + 1
	}
	return ptr{id: d.id}
}

// table returns f's direct-reference table (nil when f has no direct
// references) and memoizes it as the last lookup. Slots index the layout f executes under; the module must
// not change while the tracer observes it, which holds for a refinement
// replay.
func (t *Tracer) table(f *ir.Func) []directRef {
	tab, ok := t.tabs[f]
	if !ok {
		tab = buildTable(f, t.offs[f])
		t.tabs[f] = tab
	}
	t.lastFn, t.lastTab = f, tab
	return tab
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

// Observes implements irexec.Observer with a may-hold-pointer fixpoint
// over f's SSA form. Pointer metadata enters an activation's table only
// for parameters, direct references, Add/Sub/And/Subreg8 with a may
// operand, phis of may values, 4-byte loads (from the address map),
// extracts (from a call's returned metadata) and CallExt (the DeriveRet
// constraint); every other slot stays zero. The filter observes:
//
//   - direct references, Store, CallExt, CallExtRaw and Extract, always;
//   - Load, when its address or its result may hold a pointer;
//   - Cmp, when both operands may (link);
//   - Add, Sub, And and Subreg8, when the result may;
//   - a phi move, when the phi is a direct reference or may hold a
//     pointer;
//
// and nothing else. A skipped hook would read only zero metadata and
// write zero into a slot that is always zero. The filter depends only on
// the direct-reference table, so it holds for every fork.
func (t *Tracer) Observes(f *ir.Func) irexec.Filter {
	direct := irexec.NewSlotSet(f)
	for i, d := range buildTable(f, t.offs[f]) {
		direct[i] = d.ok
	}
	may := mayPointer(f, direct)
	obs := irexec.NewSlotSet(f)
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			switch {
			case direct.Has(v):
			case v.Op == ir.OpStore, v.Op == ir.OpCallExt, v.Op == ir.OpCallExtRaw, v.Op == ir.OpExtract:
			case v.Op == ir.OpLoad && (may.Has(v) || len(v.Args) > 0 && may.Has(v.Args[0])):
			case v.Op == ir.OpCmp && len(v.Args) > 1 && may.Has(v.Args[0]) && may.Has(v.Args[1]):
			case derives(v.Op) && may.Has(v):
			default:
				continue
			}
			obs.Add(v)
		}
	}
	return &filter{may: may, obs: obs}
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

// filter is vartrack's observation filter for one function.
type filter struct {
	may irexec.SlotSet // values that may hold pointer metadata
	obs irexec.SlotSet // instructions whose Exec can act
}

func (fl *filter) Exec(v *ir.Value) bool { return fl.obs.Has(v) }

func (fl *filter) Phi(phi, in *ir.Value) bool { return fl.may.Has(phi) }

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
	w := t.pis.Enter(fr)
	for i, p := range fr.Fn.Params {
		if d, ok := t.direct(fr, p); ok {
			w[p.Slot()] = d
		} else if i < len(args) {
			w[p.Slot()] = at(caller, args[i])
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

// Phi is the copy operation: metadata follows the selected incoming value.
func (t *Tracer) Phi(fr *irexec.Frame, phi *ir.Value, incoming *ir.Value, val uint32) {
	w := t.pis.Window(fr)
	if d, ok := t.direct(fr, phi); ok {
		w[phi.Slot()] = d
		return
	}
	w[phi.Slot()] = at(w, incoming)
}

// Exec dispatches the core tracing operations.
func (t *Tracer) Exec(fr *irexec.Frame, v *ir.Value, args []uint32, res uint32) {
	w := t.pis.Window(fr)
	// Direct stack references are base pointers of their own variables and
	// are never treated as derived (§4.1 produced them; §4.2 starts here).
	if d, ok := t.direct(fr, v); ok {
		w[v.Slot()] = d
		return
	}
	// Clear any metadata from a previous execution of this value (loops):
	// each execution recomputes it from scratch.
	w[v.Slot()] = ptr{}
	switch v.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpSubreg8:
		a := at(w, v.Args[0])
		b := at(w, v.Args[1])
		switch {
		case a.id != 0 && b.id != 0:
			if v.Op == ir.OpSub {
				// Pointer difference: both operands belong to the same
				// object (link).
				t.link(a, b)
			}
			// ptr+ptr or ptr&ptr: result is no pointer.
		case a.id != 0:
			// derive/derive2: offset advances by the value delta, which is
			// exact for every arithmetic form.
			w[v.Slot()] = ptr{id: a.id, off: a.off + int32(res-args[0])}
			if v.Op == ir.OpAnd && v.Args[1].Op == ir.OpConst {
				t.align(a, uint32(v.Args[1].Const))
			}
		case b.id != 0 && v.Op == ir.OpAdd:
			w[v.Slot()] = ptr{id: b.id, off: b.off + int32(res-args[1])}
		case b.id != 0 && v.Op == ir.OpAnd:
			w[v.Slot()] = ptr{id: b.id, off: b.off + int32(res-args[1])}
			if v.Args[0].Op == ir.OpConst {
				t.align(b, uint32(v.Args[0].Const))
			}
		}
	case ir.OpCmp:
		a := at(w, v.Args[0])
		b := at(w, v.Args[1])
		if a.id != 0 && b.id != 0 {
			t.link(a, b)
		}
	case ir.OpLoad:
		if p := at(w, v.Args[0]); p.id != 0 {
			t.boundRange(p, int64(v.Size))
		}
		if e := t.addrMap.Get(args[0]); e.id != 0 && v.Size == 4 {
			w[v.Slot()] = e
		}
	case ir.OpStore:
		addr := args[0]
		if p := at(w, v.Args[0]); p.id != 0 {
			t.boundRange(p, int64(v.Size))
		}
		t.invalidate(addr, v.Size)
		if p := at(w, v.Args[1]); p.id != 0 && v.Size == 4 {
			t.addrMap.Set(addr, p)
		}
	case ir.OpExtract:
		parent := v.Args[0]
		// External calls carry their (single) result metadata directly on
		// the call value (the DeriveRet constraint).
		if parent.Op == ir.OpCallExt || parent.Op == ir.OpCallExtRaw {
			if p := at(w, parent); p.id != 0 && v.Idx == 0 {
				w[v.Slot()] = p
			}
			return
		}
		if parent.Op == ir.OpCall || parent.Op == ir.OpCallInd {
			if rets := t.pis.Tuple(fr, parent); v.Idx < len(rets) {
				w[v.Slot()] = rets[v.Idx]
			}
		}
	case ir.OpCallExt:
		t.extCall(fr, w, v, args, res)
	}
}

// align records the alignment an AND with mask imposes on p's variable.
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
		slots := t.res.ArgSlots[v.Fn]
		if slots == nil {
			slots = make(map[int]bool)
			t.res.ArgSlots[v.Fn] = slots
		}
		for a := v.SPOff + lo; a < v.SPOff+hi; a++ {
			if a >= 4 {
				slots[int((a-4)/4)] = true
			}
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
