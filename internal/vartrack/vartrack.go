// Package vartrack is the tracing runtime of the paper's second refinement
// (§4.2, Figure 5): object-bounds recovery. Every direct stack reference
// identified by the stack-reference refinement becomes the base pointer of a
// candidate StackVar. As the instrumented program runs, the runtime tracks
// PointerInfo metadata — which StackVar a value refers to and at what offset
// — through the core tracing operations:
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

// PointerInfo associates a runtime value with a stack variable.
type PointerInfo struct {
	Var *StackVar // the variable the value points into
	Off int32     // displacement from the variable's base
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
	ip   *irexec.Interp
	offs map[*ir.Func]stackref.Offsets

	res    *Result
	nextID int
	// addrMap records the pointers stored to memory, by address (a nil
	// Var means absent).
	addrMap irexec.Shadow[PointerInfo]
	// order remembers base-pointer values in StackVar allocation order, so
	// Join can renumber a forked tracer's variables exactly as a sequential
	// run would have.
	order []*ir.Value

	// pending carries argument metadata from CallPre to the callee's
	// FnEnter; lastExit carries return metadata from FnExit to the
	// caller's Exec of the call.
	pending  []pendingCall
	lastExit *exitRecord

	// tabs holds each executed function's direct-reference table, built on
	// first use; lastFn/lastTab memoize the most recent lookup.
	tabs    map[*ir.Func][]directRef
	lastFn  *ir.Func
	lastTab []directRef
}

// directRef is one slot of a function's direct-reference table, indexed by
// Value.Slot: whether the value is a direct stack reference, its sp0
// displacement, and its base-pointer metadata. The metadata is built on the
// value's first execution (allocating its StackVar exactly when an
// uncached lookup would) and then shared: no hook mutates a PointerInfo.
type directRef struct {
	ok  bool
	off int32
	pi  *PointerInfo
}

type pendingCall struct {
	call *ir.Value
	pis  []*PointerInfo
}

type exitRecord struct {
	fn  *ir.Func
	pis []*PointerInfo
}

// retRecord hangs off the call value in the caller frame so extracts can
// pick up returned pointer metadata.
type retRecord struct {
	pis []*PointerInfo
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

// Bind gives the tracer interpreter access (memory for the §5.3 effects).
func (t *Tracer) Bind(ip *irexec.Interp) { t.ip = ip }

// Result returns the accumulated analysis results.
func (t *Tracer) Result() *Result { return t.res }

// varFor returns (allocating on demand) the StackVar of a base pointer.
func (t *Tracer) varFor(fn *ir.Func, v *ir.Value, spoff int32) *StackVar {
	if sv, ok := t.res.Vars[v]; ok {
		return sv
	}
	sv := &StackVar{ID: t.nextID, Fn: fn, SPOff: spoff}
	t.nextID++
	t.res.Vars[v] = sv
	t.res.ByFn[fn] = append(t.res.ByFn[fn], sv)
	t.order = append(t.order, v)
	return sv
}

// Fork returns a fresh tracer over the same direct-reference table for one
// input's run. Each fork tracks its own StackVars, address map and
// marshalling state; Join folds the fork's observations back.
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

func (t *Tracer) pi(fr *irexec.Frame, v *ir.Value) *PointerInfo {
	p, _ := fr.GetMeta(v).(*PointerInfo)
	return p
}

func (t *Tracer) setPI(fr *irexec.Frame, v *ir.Value, p *PointerInfo) {
	fr.SetMeta(v, p)
}

// direct returns the base-pointer metadata when v is a direct stack
// reference of the executing function.
func (t *Tracer) direct(fr *irexec.Frame, v *ir.Value) *PointerInfo {
	tab := t.table(fr.Fn)
	if tab == nil {
		return nil
	}
	d := &tab[v.Slot()]
	if !d.ok {
		return nil
	}
	if d.pi == nil {
		d.pi = &PointerInfo{Var: t.varFor(fr.Fn, v, d.off)}
	}
	return d.pi
}

// table returns f's direct-reference table (nil when f has no direct
// references). Slots index the layout f executes under; the module must
// not change while the tracer observes it, which holds for a refinement
// replay.
func (t *Tracer) table(f *ir.Func) []directRef {
	if f == t.lastFn {
		return t.lastTab
	}
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

// updateBounds implements the deferred-initialization rules of §4.2.4 for
// a size-byte dereference through p.
func (t *Tracer) updateBounds(p *PointerInfo, size uint8) {
	t.boundRange(p, int64(size))
}

func (t *Tracer) link(a, b *StackVar) {
	if a == nil || b == nil || a == b {
		return
	}
	t.res.Linked = append(t.res.Linked, [2]*StackVar{a, b})
}

// invalidate drops every recorded pointer a size-byte store at addr
// overlaps, including 4-byte entries starting up to 3 bytes below it.
func (t *Tracer) invalidate(addr uint32, size uint8) {
	t.addrMap.Clear(addr-3, uint32(size)+3)
}

// FnEnter binds incoming pointer metadata to parameters; the ESP parameter
// is the frame's own sp0 base pointer.
func (t *Tracer) FnEnter(fr *irexec.Frame) {
	var pend *pendingCall
	if n := len(t.pending); n > 0 {
		pend = &t.pending[n-1]
		t.pending = t.pending[:n-1]
	}
	for i, p := range fr.Fn.Params {
		if d := t.direct(fr, p); d != nil {
			t.setPI(fr, p, d)
			continue
		}
		if pend != nil && i < len(pend.pis) && pend.pis[i] != nil {
			t.setPI(fr, p, pend.pis[i])
		}
	}
}

// FnExit captures returned pointer metadata for the caller.
func (t *Tracer) FnExit(fr *irexec.Frame, ret *ir.Value, rets []uint32) {
	rec := &exitRecord{fn: fr.Fn, pis: make([]*PointerInfo, len(ret.Args))}
	for i, a := range ret.Args {
		rec.pis[i] = t.pi(fr, a)
	}
	t.lastExit = rec
}

// Phi is the copy operation: metadata follows the selected incoming value.
func (t *Tracer) Phi(fr *irexec.Frame, phi *ir.Value, incoming *ir.Value, val uint32) {
	if d := t.direct(fr, phi); d != nil {
		t.setPI(fr, phi, d)
		return
	}
	if p := t.pi(fr, incoming); p != nil {
		t.setPI(fr, phi, p)
	} else {
		fr.DelMeta(phi)
	}
}

// CallPre marshals argument metadata to the callee (fnenter's register
// list).
func (t *Tracer) CallPre(fr *irexec.Frame, call *ir.Value, args []uint32) {
	base := 0
	if call.Op == ir.OpCallInd {
		base = 1
	}
	pis := make([]*PointerInfo, len(call.Args)-base)
	for i := base; i < len(call.Args); i++ {
		pis[i-base] = t.pi(fr, call.Args[i])
	}
	t.pending = append(t.pending, pendingCall{call: call, pis: pis})
}

// Exec dispatches the core tracing operations.
func (t *Tracer) Exec(fr *irexec.Frame, v *ir.Value, args []uint32, res uint32) {
	// Direct stack references are base pointers of their own variables and
	// are never treated as derived (§4.1 produced them; §4.2 starts here).
	if d := t.direct(fr, v); d != nil {
		t.setPI(fr, v, d)
		return
	}
	// Clear any metadata from a previous execution of this value (loops):
	// each execution recomputes it from scratch.
	fr.DelMeta(v)
	switch v.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpSubreg8:
		aPI := t.pi(fr, v.Args[0])
		bPI := t.pi(fr, v.Args[1])
		switch {
		case aPI != nil && bPI != nil:
			if v.Op == ir.OpSub {
				// Pointer difference: both operands belong to the same
				// object (link).
				t.link(aPI.Var, bPI.Var)
			}
			// ptr+ptr or ptr&ptr: result is no pointer.
		case aPI != nil:
			// derive/derive2: offset advances by the value delta, which is
			// exact for every arithmetic form.
			np := &PointerInfo{Var: aPI.Var, Off: aPI.Off + int32(res-args[0])}
			t.setPI(fr, v, np)
			if v.Op == ir.OpAnd && v.Args[1].Op == ir.OpConst {
				if al := alignOf(uint32(v.Args[1].Const)); al > aPI.Var.Align {
					aPI.Var.Align = al
				}
			}
		case bPI != nil && v.Op == ir.OpAdd:
			np := &PointerInfo{Var: bPI.Var, Off: bPI.Off + int32(res-args[1])}
			t.setPI(fr, v, np)
		case bPI != nil && v.Op == ir.OpAnd:
			np := &PointerInfo{Var: bPI.Var, Off: bPI.Off + int32(res-args[1])}
			t.setPI(fr, v, np)
			if v.Args[0].Op == ir.OpConst {
				if al := alignOf(uint32(v.Args[0].Const)); al > bPI.Var.Align {
					bPI.Var.Align = al
				}
			}
		}
	case ir.OpCmp:
		aPI := t.pi(fr, v.Args[0])
		bPI := t.pi(fr, v.Args[1])
		if aPI != nil && bPI != nil {
			t.link(aPI.Var, bPI.Var)
		}
	case ir.OpLoad:
		if p := t.pi(fr, v.Args[0]); p != nil {
			t.updateBounds(p, v.Size)
		}
		if e := t.addrMap.Get(args[0]); e.Var != nil && v.Size == 4 {
			t.setPI(fr, v, &PointerInfo{Var: e.Var, Off: e.Off})
		}
	case ir.OpStore:
		addr := args[0]
		if p := t.pi(fr, v.Args[0]); p != nil {
			t.updateBounds(p, v.Size)
		}
		t.invalidate(addr, v.Size)
		if p := t.pi(fr, v.Args[1]); p != nil && v.Size == 4 {
			t.addrMap.Set(addr, *p)
		}
	case ir.OpCall, ir.OpCallInd:
		// The callee has run; attach its returned metadata for extracts.
		if t.lastExit != nil {
			matches := (v.Op == ir.OpCall && v.Callee == t.lastExit.fn)
			if v.Op == ir.OpCallInd {
				for _, tgt := range v.Targets {
					if tgt == t.lastExit.fn {
						matches = true
					}
				}
				if !matches && t.ip != nil {
					matches = t.ip.Mod.FuncAt(args[0]) == t.lastExit.fn
				}
			}
			if matches {
				fr.SetMeta(v, &retRecord{pis: t.lastExit.pis})
			}
			t.lastExit = nil
		}
	case ir.OpExtract:
		parent := v.Args[0]
		// External calls carry their (single) result metadata directly on
		// the call value (the DeriveRet constraint).
		if parent.Op == ir.OpCallExt || parent.Op == ir.OpCallExtRaw {
			if p := t.pi(fr, parent); p != nil && v.Idx == 0 {
				t.setPI(fr, v, p)
			}
			return
		}
		if rec, ok := fr.GetMeta(parent).(*retRecord); ok {
			if v.Idx < len(rec.pis) && rec.pis[v.Idx] != nil {
				t.setPI(fr, v, rec.pis[v.Idx])
			}
		}
	case ir.OpCallExt:
		t.extCall(fr, v, args, res)
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
func (t *Tracer) extCall(fr *irexec.Frame, v *ir.Value, args []uint32, res uint32) {
	sig, ok := extdb.Lookup(v.Sym)
	if !ok {
		return
	}
	argPI := func(i int) *PointerInfo {
		if i < 0 || i >= len(v.Args) {
			return nil
		}
		return t.pi(fr, v.Args[i])
	}
	argVal := func(i int) uint32 {
		if i < 0 || i >= len(args) {
			return 0
		}
		return args[i]
	}
	cstrLen := func(addr uint32) int32 {
		if t.ip == nil {
			return 0
		}
		s, err := t.ip.Mem.CString(addr)
		if err != nil {
			return 0
		}
		return int32(len(s))
	}
	for _, eff := range sig.Effects {
		switch eff.Kind {
		case extdb.ObjectSize:
			if p := argPI(eff.A); p != nil {
				size := int64(argVal(eff.B))
				if eff.C >= 0 {
					size *= int64(argVal(eff.C))
				}
				t.boundRange(p, size)
			}
		case extdb.ZeroTerminated:
			if p := argPI(eff.A); p != nil {
				t.boundRange(p, int64(cstrLen(argVal(eff.A)))+1)
			}
		case extdb.DeriveRet:
			if p := argPI(eff.A); p != nil && res != 0 {
				t.setPI(fr, v, &PointerInfo{Var: p.Var, Off: p.Off + int32(res-argVal(eff.A))})
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
			if p := argPI(eff.A); p != nil {
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
			if p := argPI(eff.A); p != nil {
				t.boundRange(p, n)
			}
			if p := argPI(eff.B); p != nil {
				t.boundRange(p, n)
			}
			dst, src := argVal(eff.A), argVal(eff.B)
			for i := int64(0); i+3 < n; i += 4 {
				if e := t.addrMap.Get(src + uint32(i)); e.Var != nil {
					t.addrMap.Set(dst+uint32(i), e)
				} else {
					t.addrMap.Clear(dst+uint32(i), 1)
				}
			}
		case extdb.FormatStr:
			// %s arguments are NUL-terminated reads of their objects.
			if t.ip == nil {
				continue
			}
			format, err := t.ip.Mem.CString(argVal(eff.A))
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
					if p := argPI(argIdx); p != nil {
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
func (t *Tracer) boundRange(p *PointerInfo, n int64) {
	if n <= 0 {
		return
	}
	v := p.Var
	lo, hi := p.Off, p.Off+int32(n)
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
	if v.SPOff+p.Off >= 4 {
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
