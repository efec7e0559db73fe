// Package typerec infers types for recovered stack slots (and, where the
// facts allow, the heap objects a function traverses) on top of the
// symbolized IR and the value-set analysis. Each slot is assigned a point
// of the small lattice in internal/layout (int8/16/32, ptr(T),
// array(T, n), struct{off→T}, top, conflict) by
//
//  1. seeding from access widths and pointerness at every load/store the
//     VSA attributes to the slot,
//  2. lifting strided-interval facts (vsa.StrideOf) into array strides
//     and struct field offsets — a loop walking base+k·8+4 contributes
//     the field at offset 4 of an 8-byte element,
//  3. propagating across call boundaries through argument/return binding
//     with a union-find over type variables (see Unify), and
//  4. emitting a per-function typed layout for the optimizer (slot
//     partitions for type-based splitting), the `wytiwyg types` report,
//     and the precision/recall comparison against minicc's typed ground
//     truth.
//
// The pass is read-only on the IR and claims conservatively: a slot is
// committed to a type only when the observed fields cover the slot up to
// an alignment-padding allowance; contradictory direct evidence (the
// same offset accessed at two widths, overlapping fields) degrades the
// slot to conflict — surfaced as the typed-conflict lint finding — and
// cross-boundary evidence never overrides committed local evidence.
package typerec

import (
	"fmt"
	"sort"
	"time"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/vsa"
)

// Conflict records one irreconcilable-evidence event on a slot: the
// basis of the typed-conflict lint finding.
type Conflict struct {
	// Slot is the alloca whose evidence collided.
	Slot *ir.Value
	// At is the access instruction that collided with earlier evidence.
	At *ir.Value
	// Msg describes the collision (widths and offsets involved).
	Msg string
}

// FuncResult holds one function's inferred slot types plus the evidence
// the cross-function unification consumes.
type FuncResult struct {
	fn  *ir.Func
	fix *vsa.FuncResult

	// Slots maps each alloca to its inferred type (post-Unify; before
	// Unify it holds the purely local inference).
	Slots map[*ir.Value]*layout.Type
	// Heap is the inferred element type of the function's heap accesses
	// (top when the facts don't determine one).
	Heap *layout.Type
	// Conflicts lists the irreconcilable-evidence events in
	// deterministic (block, instruction) order.
	Conflicts []Conflict
	// Elapsed is the inference's wall-clock cost, excluding the VSA
	// fixpoint it was handed.
	Elapsed time.Duration

	// allocas lists the function's allocas in (block, instruction)
	// order — the deterministic iteration order for Slots.
	allocas []*ir.Value
	// local is the pre-unification inference per alloca.
	local map[*ir.Value]*layout.Type
	// pointee records, per alloca and field offset, the unique frame
	// slot whose address the field was observed to hold (nil once two
	// distinct targets were seen).
	pointee map[*ir.Value]map[int64]*ir.Value
	// paramElem is the per-parameter pointee evidence: the scalar type
	// the function's direct accesses through the parameter witness
	// (nil = no evidence; the parameter may not be a pointer at all).
	paramElem []*layout.Type
	// retPtr marks that the function was observed returning a pointer.
	retPtr bool

	// tainted marks slots an unattributable access may touch: they must
	// stay top — a commit from the attributable accesses alone could be
	// width-unsound against the accesses the VSA lost track of — and
	// cross-call unification must not adopt into them either.
	tainted map[*ir.Value]bool

	// Union-find variable ids, assigned by Unify (-1 until then).
	slotVar  map[*ir.Value]int
	paramVar []int
	retVar   int
}

// Fn returns the analyzed function.
func (r *FuncResult) Fn() *ir.Func { return r.fn }

// Allocas returns the function's stack objects in deterministic
// (block, instruction) order.
func (r *FuncResult) Allocas() []*ir.Value { return r.allocas }

// fact is one access-shape observation about an object: every observed
// offset is ≡ phase (mod step), accessed width bytes at a time.
type fact struct {
	step    int64 // congruence step (0 = exact offset)
	phase   int64 // offset residue (the exact offset when step == 0)
	lo, hi  int64 // observed extent when bounded
	bounded bool
	width   int64     // access width in bytes
	ptr     bool      // the accessed cell was observed holding a pointer
	target  *ir.Value // the unique pointed-to alloca, if known
	at      *ir.Value // the access instruction
}

// accWidth returns a memory op's access width (the IR encodes 4 as 0).
func accWidth(v *ir.Value) int64 {
	if v.Size == 0 {
		return 4
	}
	return int64(v.Size)
}

// AnalyzeFunc runs the type inference for one function from its VSA
// fixpoint fix (vsa.Analyze of the function, or a result that is still
// Current): it gathers the access facts and assembles the local slot
// types. Cross-function refinement happens later in Unify. Neither the
// function nor fix is mutated.
func AnalyzeFunc(fix *vsa.FuncResult) *FuncResult {
	start := time.Now()
	f := fix.Fn()
	r := &FuncResult{
		fn:      f,
		fix:     fix,
		local:   make(map[*ir.Value]*layout.Type),
		pointee: make(map[*ir.Value]map[int64]*ir.Value),
		retVar:  -1,
	}
	orc := fix.Oracle()

	slotFacts := make(map[*ir.Value][]fact)
	var heapFacts []fact
	var unattributed []*ir.Value // accesses no single object absorbed
	heapTainted := false
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca {
				r.allocas = append(r.allocas, v)
				continue
			}
			if v.Op != ir.OpLoad && v.Op != ir.OpStore {
				continue
			}
			fc := fact{width: accWidth(v), at: v}
			fc.ptr, fc.target = r.cellPointer(v)
			if st, ok := orc.StrideOf(v.Args[0]); ok {
				fc.step, fc.phase = st.Step, st.Phase
				fc.lo, fc.hi, fc.bounded = st.Lo, st.Hi, st.Bounded
				slotFacts[st.Base] = append(slotFacts[st.Base], fc)
				continue
			}
			if s, ok := fix.ValueSetOf(v.Args[0]).HeapPart(); ok {
				if st, ok := vsa.StrideFacts(s); ok {
					fc.step, fc.phase = st.Step, st.Phase
					fc.lo, fc.hi, fc.bounded = st.Lo, st.Hi, st.Bounded
					heapFacts = append(heapFacts, fc)
					continue
				}
				heapTainted = true
			}
			unattributed = append(unattributed, v)
		}
	}

	// An access the fact loop could not attribute to exactly one object
	// may at runtime land in a slot at a width no fact recorded, so every
	// slot it may touch is demoted to top before resolution: committing
	// such a slot from the attributable accesses alone would be
	// width-unsound. "May touch" is built from three sound sources: the
	// address's syntactic alloca root (covers derivations the VSA widened
	// away), the frame parts its value set names (covers multi-slot
	// joins), and — for a fully unknown (top) address — the escaped
	// slots, since a pointer the VSA cannot track can only hold a frame
	// address that left the function's own arithmetic.
	r.tainted = make(map[*ir.Value]bool)
	if len(unattributed) > 0 {
		ef := analysis.Escape(f)
		for _, v := range unattributed {
			addr := v.Args[0]
			if root := ef.Roots[addr]; root != nil {
				r.tainted[root] = true
			}
			vs := fix.ValueSetOf(addr)
			if vs.IsTop() {
				for _, a := range r.allocas {
					if ef.Escaped[a] {
						r.tainted[a] = true
					}
				}
				heapTainted = true
				continue
			}
			if _, ok := vs.Part(vsa.HeapRegion); ok {
				heapTainted = true
			}
			for _, a := range r.allocas {
				if _, ok := vs.Part(vsa.Region{Kind: vsa.RegFrame, Base: a}); ok {
					r.tainted[a] = true
				}
			}
		}
	}

	for _, a := range r.allocas {
		if r.tainted[a] {
			r.local[a] = layout.Top
			continue
		}
		r.local[a] = r.resolveSlot(a, slotFacts[a])
	}
	r.Slots = make(map[*ir.Value]*layout.Type, len(r.local))
	for _, a := range r.allocas {
		r.Slots[a] = r.fillPointees(a, r.local[a])
	}
	r.Heap = layout.Top
	if !heapTainted {
		r.Heap = resolveHeap(heapFacts)
	}
	r.paramElem = paramEvidence(f)
	r.retPtr = returnsPointer(f, fix)
	r.Elapsed = time.Since(start)
	return r
}

// cellPointer reports whether the accessed cell was observed holding a
// pointer — for a store, the stored value has a frame/heap part; for a
// load, the loaded value does (the VSA tracks cell contents). It also
// returns the pointed-to alloca when the evidence names exactly one.
func (r *FuncResult) cellPointer(v *ir.Value) (bool, *ir.Value) {
	val := v
	if v.Op == ir.OpStore {
		val = v.Args[1]
	}
	vs := r.fix.ValueSetOf(val)
	if !vs.HasPointerPart() {
		return false, nil
	}
	if base, s, ok := vs.FramePart(); ok {
		if off, exact := s.Exact(); exact && off == 0 {
			return true, base
		}
	}
	return true, nil
}

// field is one scalar cell of an element under assembly.
type field struct {
	off   int64
	width int64
	ptr   bool
	// target is the unique pointed-to alloca of a ptr field (nil when
	// unknown or ambiguous); targetSet distinguishes "none seen yet".
	target    *ir.Value
	targetSet bool
}

// conflictf records an irreconcilable-evidence event and returns the
// conflict lattice point.
func (r *FuncResult) conflictf(a *ir.Value, at *ir.Value, format string, args ...any) *layout.Type {
	r.Conflicts = append(r.Conflicts, Conflict{
		Slot: a, At: at, Msg: fmt.Sprintf(format, args...),
	})
	return layout.Conflict
}

// resolveSlot assembles one slot's facts into a lattice point.
//
// The element size S is the gcd of the strided steps (the whole slot
// when no access strides), every fact folds to a field at its residue
// within [0, S), and the slot commits to a claim only when the fields
// tile the element up to strictly less than one max-field-width of
// padding — the alignment slack a C struct layout can introduce, and
// small enough that a lone narrow access can never masquerade as a
// covering claim. S dividing the slot size yields array(elem, n);
// contradictions (same offset at two widths, overlapping or
// element-straddling fields) degrade to conflict; insufficient coverage
// or out-of-slot evidence degrades to top.
func (r *FuncResult) resolveSlot(a *ir.Value, facts []fact) *layout.Type {
	if len(facts) == 0 {
		return layout.Top
	}
	size := int64(a.AllocSize)
	if size <= 0 {
		return layout.Top
	}

	elem := size
	for _, fc := range facts {
		if fc.step > 0 {
			elem = gcd(elem, fc.step)
		}
	}
	if elem <= 0 || size%elem != 0 {
		return layout.Top
	}

	fields := make(map[int64]*field)
	for i := range facts {
		fc := &facts[i]
		// Out-of-slot evidence: the claim machinery has nothing sound to
		// say about this slot (the VSA verifier reports the access
		// itself).
		if fc.step == 0 && (fc.phase < 0 || fc.phase+fc.width > size) {
			return layout.Top
		}
		if fc.bounded && (fc.lo < 0 || fc.hi+fc.width > size) {
			return layout.Top
		}
		off := fc.phase % elem
		if off+fc.width > elem {
			return r.conflictf(a, fc.at,
				"%d-byte access at offset %d straddles the %d-byte element boundary",
				fc.width, fc.phase, elem)
		}
		if old, ok := fields[off]; ok {
			if old.width != fc.width {
				return r.conflictf(a, fc.at,
					"slot accessed at irreconcilable widths (%d and %d bytes at offset %d)",
					old.width, fc.width, off)
			}
			old.ptr = old.ptr || fc.ptr
			old.note(fc.target)
			continue
		}
		fl := &field{off: off, width: fc.width, ptr: fc.ptr}
		fl.note(fc.target)
		fields[off] = fl
	}

	ordered := make([]*field, 0, len(fields))
	for _, fl := range fields {
		ordered = append(ordered, fl)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].off < ordered[j].off })

	var covered, maxW int64
	for i, fl := range ordered {
		if i > 0 && ordered[i-1].off+ordered[i-1].width > fl.off {
			return r.conflictf(a, facts[0].at,
				"overlapping fields at offsets %d and %d", ordered[i-1].off, fl.off)
		}
		covered += fl.width
		if fl.width > maxW {
			maxW = fl.width
		}
	}
	if elem-covered >= maxW {
		return layout.Top // not enough coverage to commit
	}

	et := r.elementType(a, ordered, elem)
	if et == nil {
		return layout.Top
	}
	if n := size / elem; n > 1 {
		return layout.ArrayOf(et, uint32(n))
	}
	return et
}

// elementType builds the element's lattice point from its tiled fields,
// recording pointee links for later resolution. A single field spanning
// the element is a scalar; several fields form a struct.
func (r *FuncResult) elementType(a *ir.Value, fields []*field, elem int64) *layout.Type {
	scalar := func(fl *field) *layout.Type {
		if fl.ptr && fl.width == 4 {
			if fl.target != nil {
				link := r.pointee[a]
				if link == nil {
					link = make(map[int64]*ir.Value)
					r.pointee[a] = link
				}
				link[fl.off] = fl.target
			}
			return layout.PtrTo(nil)
		}
		return layout.IntOfWidth(uint32(fl.width))
	}
	if len(fields) == 1 && fields[0].off == 0 && fields[0].width == elem {
		return scalar(fields[0])
	}
	out := make([]layout.TField, 0, len(fields))
	for _, fl := range fields {
		st := scalar(fl)
		if st == nil {
			return nil
		}
		out = append(out, layout.TField{Off: uint32(fl.off), Type: st})
	}
	return layout.StructOf(out)
}

// note merges one pointee observation into the field.
func (fl *field) note(target *ir.Value) {
	if !fl.targetSet {
		fl.target, fl.targetSet = target, true
		return
	}
	if fl.target != target {
		fl.target = nil
	}
}

// fillPointees decorates a slot type's pointer cells with the types of
// their uniquely observed targets (one level deep; pointees are
// reported, never scored).
func (r *FuncResult) fillPointees(a *ir.Value, t *layout.Type) *layout.Type {
	links := r.pointee[a]
	if len(links) == 0 || !t.Committed() {
		return t
	}
	elemOf := func(off int64) *layout.Type {
		tgt := links[off]
		if tgt == nil || tgt == a {
			return nil
		}
		if lt := r.local[tgt]; lt.Committed() {
			return lt
		}
		return nil
	}
	switch t.Kind {
	case layout.TPtr:
		if e := elemOf(0); e != nil {
			return layout.PtrTo(e)
		}
	case layout.TStruct:
		out := make([]layout.TField, len(t.Fields))
		copy(out, t.Fields)
		for i, fl := range out {
			if fl.Type.Kind0() == layout.TPtr && fl.Type.Elem == nil {
				if e := elemOf(int64(fl.Off)); e != nil {
					out[i] = layout.TField{Off: fl.Off, Type: layout.PtrTo(e)}
				}
			}
		}
		return layout.StructOf(out)
	case layout.TArray:
		if t.Elem.Kind0() == layout.TPtr && t.Elem.Elem == nil {
			if e := elemOf(0); e != nil {
				return layout.ArrayOf(layout.PtrTo(e), t.Count)
			}
		}
	}
	return t
}

// resolveHeap assembles the heap-access facts into an element type. The
// heap summary has no known object size, so only strided traversals
// commit (the stride is the element size); plain scalar heap accesses
// stay top.
func resolveHeap(facts []fact) *layout.Type {
	var elem int64
	for _, fc := range facts {
		if fc.step > 0 {
			elem = gcd(elem, fc.step)
		}
	}
	if elem <= 0 {
		return layout.Top
	}
	fields := make(map[int64]*field)
	for i := range facts {
		fc := &facts[i]
		off := fc.phase % elem
		if off+fc.width > elem {
			return layout.Top
		}
		if old, ok := fields[off]; ok {
			if old.width != fc.width {
				return layout.Conflict
			}
			old.ptr = old.ptr || fc.ptr
			continue
		}
		fields[off] = &field{off: off, width: fc.width, ptr: fc.ptr}
	}
	ordered := make([]*field, 0, len(fields))
	for _, fl := range fields {
		ordered = append(ordered, fl)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].off < ordered[j].off })
	var covered, maxW int64
	for i, fl := range ordered {
		if i > 0 && ordered[i-1].off+ordered[i-1].width > fl.off {
			return layout.Conflict
		}
		covered += fl.width
		if fl.width > maxW {
			maxW = fl.width
		}
	}
	if elem-covered >= maxW {
		return layout.Top
	}
	if len(ordered) == 1 && ordered[0].off == 0 && ordered[0].width == elem {
		if ordered[0].ptr && elem == 4 {
			return layout.PtrTo(nil)
		}
		return layout.IntOfWidth(uint32(elem))
	}
	out := make([]layout.TField, 0, len(ordered))
	for _, fl := range ordered {
		st := layout.IntOfWidth(uint32(fl.width))
		if fl.ptr && fl.width == 4 {
			st = layout.PtrTo(nil)
		}
		if st == nil {
			return layout.Top
		}
		out = append(out, layout.TField{Off: uint32(fl.off), Type: st})
	}
	return layout.StructOf(out)
}

// paramEvidence gathers the per-parameter pointee evidence from the
// function's own body: a parameter used (directly or via a constant
// offset) as a load/store address is a pointer, and the access width
// witnesses its pointee's scalar shape. The VSA cannot attribute these
// accesses (the caller's frame is outside the callee's abstraction), so
// the walk is syntactic.
func paramEvidence(f *ir.Func) []*layout.Type {
	out := make([]*layout.Type, len(f.Params))
	widthAt := make(map[*ir.Value]int64) // param → agreed direct-access width (-1 conflict)
	note := func(p *ir.Value, w int64) {
		if old, ok := widthAt[p]; ok && old != w {
			widthAt[p] = -1
			return
		}
		widthAt[p] = w
	}
	paramOf := func(v *ir.Value) *ir.Value {
		if v.Op == ir.OpParam {
			return v
		}
		if v.Op == ir.OpAdd && len(v.Args) == 2 {
			if v.Args[0].Op == ir.OpParam && v.Args[1].Op == ir.OpConst {
				return v.Args[0]
			}
			if v.Args[1].Op == ir.OpParam && v.Args[0].Op == ir.OpConst {
				return v.Args[1]
			}
		}
		return nil
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpLoad && v.Op != ir.OpStore {
				continue
			}
			if p := paramOf(v.Args[0]); p != nil {
				note(p, accWidth(v))
			}
		}
	}
	for i, p := range f.Params {
		if w, ok := widthAt[p]; ok && w > 0 {
			out[i] = layout.PtrTo(layout.IntOfWidth(uint32(w)))
		}
	}
	return out
}

// returnsPointer reports whether any return site's first slot carries a
// proven pointer value.
func returnsPointer(f *ir.Func, fix *vsa.FuncResult) bool {
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpRet || len(t.Args) == 0 {
			continue
		}
		if fix.ValueSetOf(t.Args[0]).HasPointerPart() {
			return true
		}
	}
	return false
}

// SlotPartition returns the inferred scalar-cell partition of one slot
// as [offset, size] pairs, or nil when the slot has no committed type.
// This is the structural hook opt.TypedInfo consumes for type-based
// slot splitting; the partition is a claim, and the optimizer
// independently proves each access hits a cell exactly before acting on
// it.
func (r *FuncResult) SlotPartition(a *ir.Value) [][2]int64 {
	t := r.Slots[a]
	if !t.Committed() {
		return nil
	}
	leaves := t.Leaves()
	if len(leaves) == 0 {
		return nil
	}
	out := make([][2]int64, len(leaves))
	for i, l := range leaves {
		out[i] = [2]int64{int64(l.Off), int64(l.Size)}
	}
	return out
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
