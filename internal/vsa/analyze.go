package vsa

import (
	"maps"
	"time"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
)

// aloc is one abstract memory location: size bytes at a fixed offset
// within a region. Frame alocs denote cells of one stack object; Num
// alocs denote absolute cells (globals). The heap summary has no alocs —
// one abstract heap offset stands for many concrete cells, so no heap
// cell supports a strong update or a trustworthy load.
type aloc struct {
	region Region
	off    int64
	size   int64
}

// state is the abstract machine state at a program point: the value set
// of every SSA value evaluated so far (missing = bottom, the optimistic
// initial value) and the abstract store (a missing key = Top, so joins
// intersect key sets). A bottom store (no path has reached the point yet)
// is the flag bot over an empty map: the map's storage stays with the
// state, so copies and joins refill it instead of allocating a new one.
type state struct {
	env analysis.Env[ValueSet]
	mem map[aloc]ValueSet
	bot bool
}

// copyState makes dst an independent copy of src, reusing dst's storage.
func copyState(dst, src state) state {
	dst.env = dst.env.CopyFrom(src.env)
	if dst.mem == nil {
		dst.mem = make(map[aloc]ValueSet, len(src.mem))
	} else {
		clear(dst.mem)
	}
	maps.Copy(dst.mem, src.mem)
	dst.bot = src.bot
	return dst
}

// joinVS joins one entry, reporting whether it grew.
func joinVS(dv, sv ValueSet) (ValueSet, bool) {
	nv := dv.Join(sv)
	return nv, !nv.Eq(dv)
}

func joinState(dst, src state) (state, bool) {
	changed := dst.env.JoinFrom(src.env, joinVS)
	switch {
	case src.bot:
		// Bottom store contributes nothing.
	case dst.bot:
		maps.Copy(dst.mem, src.mem) // dst's bottom map is empty
		dst.bot = false
		changed = true
	default:
		for k, dv := range dst.mem {
			sv, ok := src.mem[k]
			if !ok {
				delete(dst.mem, k) // missing on one side: Top
				changed = true
				continue
			}
			if nv, grew := joinVS(dv, sv); grew {
				dst.mem[k] = nv
				changed = true
			}
		}
	}
	return dst, changed
}

func widenState(prev, next state) state {
	next.env.WidenFrom(prev.env, func(pv, nv ValueSet) ValueSet { return nv.WidenFrom(pv) })
	for k, nv := range next.mem {
		if pv, ok := prev.mem[k]; ok {
			next.mem[k] = nv.WidenFrom(pv)
		}
	}
	return next
}

// accSize is the byte width of a memory access (the IR uses 0 for the
// native 4-byte width).
func accSize(v *ir.Value) int64 {
	if v.Size == 0 {
		return 4
	}
	return int64(v.Size)
}

// evalValue computes the value set of one non-memory instruction.
func evalValue(v *ir.Value, env analysis.Env[ValueSet]) ValueSet {
	get := func(a *ir.Value) ValueSet {
		if vs, ok := env.Get(a); ok {
			return vs
		}
		return TopVS
	}
	constArg := func(a *ir.Value) (int64, bool) {
		if num, ok := get(a).NumPart(); ok {
			return num.Exact()
		}
		return 0, false
	}
	switch v.Op {
	case ir.OpConst:
		return ConstVS(int64(v.Const))
	case ir.OpAlloca:
		return FrameVS(v, ConstSI(0))
	case ir.OpAdd:
		return get(v.Args[0]).Add(get(v.Args[1]))
	case ir.OpSub:
		return get(v.Args[0]).Sub(get(v.Args[1]))
	case ir.OpNeg:
		return get(v.Args[0]).Neg()
	case ir.OpMul:
		if k, ok := constArg(v.Args[1]); ok {
			return get(v.Args[0]).MulConst(k)
		}
		if k, ok := constArg(v.Args[0]); ok {
			return get(v.Args[1]).MulConst(k)
		}
		return TopVS
	case ir.OpShl:
		if k, ok := constArg(v.Args[1]); ok && k >= 0 && k < 32 {
			return get(v.Args[0]).MulConst(1 << uint(k))
		}
		return TopVS
	case ir.OpAnd:
		return evalAnd(get(v.Args[0]), get(v.Args[1]))
	case ir.OpMod:
		if k, ok := constArg(v.Args[1]); ok && k > 0 {
			// OpMod is signed: the result is non-negative only when the
			// dividend's signed reading is — words at or above 2^31 read
			// negative, so a wrapped unsigned-window set proves nothing.
			if num, ok := get(v.Args[0]).NumPart(); ok && num.Lo >= 0 && num.Hi < 1<<31 {
				return NumVS(SpanSI(0, k-1, 1))
			}
			return NumVS(SpanSI(-(k - 1), k-1, 1))
		}
		return TopVS
	case ir.OpCmp:
		return NumVS(SpanSI(0, 1, 1))
	case ir.OpZext, ir.OpSext:
		lo, hi := extRange(v.Op, v.Size)
		if num, ok := get(v.Args[0]).NumPart(); ok && num.Lo >= lo && num.Hi <= hi {
			return NumVS(num)
		}
		return NumVS(SpanSI(lo, hi, 1))
	case ir.OpCallExt:
		if v.Sym == "malloc" || v.Sym == "calloc" {
			return HeapVS(SpanSI(0, posInf, 1))
		}
		return TopVS
	case ir.OpPhi:
		out := BottomVS
		seen := false
		for _, a := range v.Args {
			if a == v {
				continue
			}
			av, ok := env.Get(a)
			if !ok {
				continue // bottom: optimistic, resolved by reiteration
			}
			out = out.Join(av)
			seen = true
		}
		if !seen {
			return TopVS
		}
		return out
	}
	return TopVS
}

// extRange is the value range of a size-byte operand extended by op
// (OpZext or OpSext); a 4-byte sign extension is the identity, Top.
func extRange(op ir.Op, size uint8) (lo, hi int64) {
	if op == ir.OpZext {
		switch size {
		case 1:
			return 0, 0xFF
		case 2:
			return 0, 0xFFFF
		}
		return 0, 0xFFFFFFFF
	}
	switch size {
	case 1:
		return -0x80, 0x7F
	case 2:
		return -0x8000, 0x7FFF
	}
	return negInf, posInf
}

// evalAnd models bit masking: a positive mask bounds the result, and an
// alignment mask −2^k floors its operand to a multiple of 2^k, which the
// stride captures exactly.
func evalAnd(a, b ValueSet) ValueSet {
	mask, ok := b.NumPart()
	if !ok {
		if mask, ok = a.NumPart(); !ok {
			return TopVS
		}
		a = b
	}
	m, exact := mask.Exact()
	if !exact {
		return TopVS
	}
	if m >= 0 {
		return NumVS(SpanSI(0, m, 1))
	}
	if k := -m; k&(k-1) == 0 {
		// x & −2^k rounds x down to a multiple of 2^k. That is only a
		// rounding of the region-relative offset when the region's
		// concrete base is itself 2^k-aligned; otherwise the mask mixes
		// base bits into the offset and the part is unknown.
		if a.IsTop() || a.IsBottom() {
			return TopVS
		}
		out := make([]part, len(a.parts))
		for i, p := range a.parts {
			r, s := p.r, p.s
			if s.Lo <= negInf || s.Hi >= posInf || !regionAligned(r, k) {
				out[i] = part{r, TopSI}
				continue
			}
			lo := s.Lo - mod(s.Lo, k)
			hi := s.Hi - mod(s.Hi, k)
			out[i] = part{r, SpanSI(lo, hi, k)}
		}
		return ValueSet{parts: out}
	}
	return TopVS
}

// regionAligned reports whether the region's concrete base address is
// guaranteed to be a multiple of k (a power of two). Num offsets are the
// absolute addresses themselves, so any mask is exact. An alloca's
// native storage is aligned by irexec to max(Align, 4) — and, since the
// alignment mask only clears the trailing run of bits, to no more than
// Align's lowest set bit. The bump allocator hands out 8-byte-aligned
// heap blocks.
func regionAligned(r Region, k int64) bool {
	switch r.Kind {
	case RegNum:
		return true
	case RegFrame:
		al := int64(r.Base.Align)
		if al != 0 {
			al &= -al // guaranteed power-of-two alignment of the base
		}
		if al < 4 {
			al = 4
		}
		return k <= al
	case RegHeap:
		return k <= 8
	}
	return false
}

// FuncResult is the VSA fixpoint of one function.
type FuncResult struct {
	fn *ir.Func
	// vals is the value set of every SSA value at its definition (SSA
	// values are immutable, so this is their set at every use).
	vals map[*ir.Value]ValueSet
	// esc are fn's syntactic address-derivation and escape facts: the
	// escape set drives call clobbering, and the lint's initialization
	// and dead-store checks and the admission gate read them too.
	esc analysis.EscapeFacts
	// read records what the analysis read of fn (see Current).
	read readSet
	// Elapsed is the analysis wall time, for performance reporting.
	Elapsed time.Duration
}

// Fn returns the analyzed function.
func (fr *FuncResult) Fn() *ir.Func { return fr.fn }

// Escape returns the function's address-derivation and escape facts, which
// the analysis computed for call clobbering. They are shared: read only.
func (fr *FuncResult) Escape() analysis.EscapeFacts { return fr.esc }

// ValueSetOf returns the value set of v (Top when v was never reached).
func (fr *FuncResult) ValueSetOf(v *ir.Value) ValueSet {
	if vs, ok := fr.vals[v]; ok {
		return vs
	}
	return TopVS
}

// transfer interprets one block: phis, then instructions in order, with
// loads reading and stores updating the abstract store.
func transfer(b *ir.Block, st state, esc map[*ir.Value]bool) state {
	st.bot = false // a bottom store is empty: read it as all-Top
	for _, v := range b.Phis {
		st.env.Set(v, evalValue(v, st.env))
	}
	for _, v := range b.Insts {
		switch v.Op {
		case ir.OpLoad:
			st.env.Set(v, loadCell(st, v))
		case ir.OpStore:
			storeCell(st, v)
		case ir.OpCall, ir.OpCallInd, ir.OpCallExt, ir.OpCallExtRaw:
			clobberCall(st, esc)
			if v.Op.HasResult() {
				st.env.Set(v, evalValue(v, st.env))
			}
		default:
			if v.Op.HasResult() {
				st.env.Set(v, evalValue(v, st.env))
			}
		}
	}
	return st
}

// loadCell reads the abstract store: only an address proven to be exactly
// one non-heap cell yields a tracked value; everything else is Top.
func loadCell(st state, v *ir.Value) ValueSet {
	addr, _ := st.env.Get(v.Args[0])
	if r, off, one := singleCell(addr); one {
		if val, ok := st.mem[aloc{region: r, off: off, size: accSize(v)}]; ok {
			return val
		}
	}
	return TopVS
}

// storeCell applies one store to the abstract store. An exactly-resolved
// non-heap cell gets a strong update; any other pointer invalidates every
// tracked cell it may overlap; an unknown pointer invalidates everything.
// Invalidation applies the same cross-region model as the alias oracle
// (regionsDisjoint): a store through a numeric address not proven below
// isa.HeapBase may hit native frame or heap storage, so it clobbers
// those cells too — and a frame store clobbers numeric cells living at
// such unproven addresses.
func storeCell(st state, v *ir.Value) {
	addr, ok := st.env.Get(v.Args[0])
	size := accSize(v)
	if !ok || addr.top || addr.IsBottom() {
		for k := range st.mem {
			delete(st.mem, k)
		}
		return
	}
	val := TopVS
	if sv, ok := st.env.Get(v.Args[1]); ok {
		val = sv
	}
	if r, s, one := singleCell(addr); one {
		// Strong update: this is the only concrete cell the store can hit.
		dst := aloc{region: r, off: s, size: size}
		for k := range st.mem {
			if k != dst && mayClobberCell(addr, size, k) {
				delete(st.mem, k)
			}
		}
		st.mem[dst] = val
		return
	}
	for k := range st.mem {
		if mayClobberCell(addr, size, k) {
			delete(st.mem, k)
		}
	}
}

// mayClobberCell reports whether a size-byte store through addr may write
// any byte of the tracked cell k. Same-region overlap uses the strided
// offset sets; cross-region overlap is governed by regionsDisjoint, the
// memory-map model the alias oracle answers from — the store transfer
// must not be less conservative than the oracle.
func mayClobberCell(addr ValueSet, size int64, k aloc) bool {
	cell := ConstSI(k.off)
	for _, p := range addr.parts {
		r, s := p.r, p.s
		if r == k.region {
			if r.Kind == RegHeap || !s.DisjointAccess(size, cell, k.size) {
				return true
			}
			continue
		}
		if !regionsDisjoint(r, s, size, k.region, cell, k.size) {
			return true
		}
	}
	return false
}

// singleCell reports whether addr resolves to exactly one strong-updatable
// cell: a single non-heap region at an exact offset.
func singleCell(addr ValueSet) (Region, int64, bool) {
	if addr.top || len(addr.parts) != 1 || addr.parts[0].r.Kind == RegHeap {
		return Region{}, 0, false
	}
	p := addr.parts[0]
	off, exact := p.s.Exact()
	return p.r, off, exact
}

// clobberCall invalidates every cell a callee could write: globals, the
// heap, and any stack object whose address escapes the function.
func clobberCall(st state, esc map[*ir.Value]bool) {
	for k := range st.mem {
		switch k.region.Kind {
		case RegNum, RegHeap:
			delete(st.mem, k)
		case RegFrame:
			if esc[k.region.Base] {
				delete(st.mem, k)
			}
		}
	}
}

// problem is the value-set instance of the engine for f, whose escape
// set is esc.
func problem(f *ir.Func, esc map[*ir.Value]bool) analysis.Problem[state] {
	f.EnsureLayout()
	n := f.Layout().NumSlots
	return analysis.Problem[state]{
		Forward: true,
		Boundary: func(*ir.Func) state {
			return state{env: analysis.NewEnv[ValueSet](n), mem: map[aloc]ValueSet{}}
		},
		Bottom:   func() state { return state{env: analysis.NewEnv[ValueSet](n), mem: map[aloc]ValueSet{}, bot: true} },
		Join:     joinState,
		Copy:     copyState,
		Transfer: func(b *ir.Block, in state) state { return transfer(b, in, esc) },
		Widen:    widenState,
	}
}

// Analyze runs the value-set analysis to a fixpoint over one function.
// The result records what it read of f, so a holder can tell whether it
// still describes f after passes ran (Current).
func Analyze(f *ir.Func) *FuncResult {
	start := time.Now()
	esc := analysis.Escape(f)
	prob := problem(f, esc.Escaped)
	res := analysis.Solve(f, prob)
	vals := make(map[*ir.Value]ValueSet)
	for _, b := range f.Blocks {
		in, ok := res[b]
		if !ok {
			continue
		}
		// SSA values never change once defined, so the block's exit
		// state holds the set of every value it defines.
		out := prob.Transfer(b, in)
		for _, v := range b.Phis {
			if vs, ok := out.env.Get(v); ok {
				vals[v] = vs
			}
		}
		for _, v := range b.Insts {
			if vs, ok := out.env.Get(v); ok && v.Op.HasResult() {
				vals[v] = vs
			}
		}
	}
	fr := &FuncResult{fn: f, vals: vals, esc: esc, read: record(f)}
	fr.Elapsed = time.Since(start)
	return fr
}
