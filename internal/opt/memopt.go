package opt

import (
	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
)

// Memory optimization: store-to-load forwarding, redundant-load elimination
// and dead-store elimination with the alias information symbolization
// unlocks. The rules are exactly the paper's motivation (§2.1): distinct
// stack objects (allocas) cannot alias each other, and an alloca whose
// address never escapes cannot alias an unknown pointer — facts that are
// unprovable while the stack is one opaque byte array.

// memLoc describes an address expression for aliasing purposes.
type memLoc struct {
	// base is the alloca anchoring the address, nil for unknown/global.
	base *ir.Value
	// off is the constant offset from base (or the absolute constant for
	// base == nil with known == true).
	off   int32
	known bool
}

// resolveLoc classifies an address value.
func resolveLoc(addr *ir.Value) memLoc {
	switch addr.Op {
	case ir.OpAlloca:
		return memLoc{base: addr, off: 0, known: true}
	case ir.OpConst:
		return memLoc{base: nil, off: addr.Const, known: true}
	case ir.OpAdd:
		if k, ok := cval(addr.Args[1]); ok {
			inner := resolveLoc(addr.Args[0])
			if inner.known {
				return memLoc{base: inner.base, off: inner.off + k, known: true}
			}
		}
		if k, ok := cval(addr.Args[0]); ok {
			inner := resolveLoc(addr.Args[1])
			if inner.known {
				return memLoc{base: inner.base, off: inner.off + k, known: true}
			}
		}
	case ir.OpSub:
		if k, ok := cval(addr.Args[1]); ok {
			inner := resolveLoc(addr.Args[0])
			if inner.known {
				return memLoc{base: inner.base, off: inner.off - k, known: true}
			}
		}
	}
	// Derived dynamically: remember the anchoring alloca when there is one
	// (unknown offset within a known object).
	if a := allocaRoot(addr); a != nil {
		return memLoc{base: a, known: false}
	}
	return memLoc{}
}

// allocaRoot walks add/sub chains to the anchoring alloca, if any.
func allocaRoot(v *ir.Value) *ir.Value {
	for i := 0; i < 32; i++ {
		switch v.Op {
		case ir.OpAlloca:
			return v
		case ir.OpAdd, ir.OpSub:
			// Follow the pointer-ish side.
			if a := quickRoot(v.Args[0]); a != nil {
				v = v.Args[0]
				continue
			}
			if v.Op == ir.OpAdd {
				if a := quickRoot(v.Args[1]); a != nil {
					v = v.Args[1]
					continue
				}
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

func quickRoot(v *ir.Value) *ir.Value {
	switch v.Op {
	case ir.OpAlloca:
		return v
	case ir.OpAdd, ir.OpSub:
		return v // keep walking
	}
	return nil
}

// overlap reports whether two located accesses may touch common bytes.
func overlap(a memLoc, asz uint8, b memLoc, bsz uint8) bool {
	if a.base != b.base {
		// Distinct allocas never alias; alloca vs non-alloca handled by
		// the caller via escape analysis.
		if a.base != nil && b.base != nil {
			return false
		}
		return true // conservatively (one side unknown/global)
	}
	if !a.known || !b.known {
		return true // same object, unknown offsets
	}
	return a.off < b.off+int32(bsz) && b.off < a.off+int32(asz)
}

// MemOpt performs block-local store-to-load forwarding, redundant load
// elimination and dead store elimination. Returns the number of removed or
// forwarded operations. Escape facts come from the analysis layer, the
// same ones the lint stage audits.
func MemOpt(f *ir.Func) int { return MemOptWith(f, nil) }

// MemOptWith is MemOpt with an optional alias oracle. Wherever the
// syntactic rules would conservatively kill or keep-alive an entry, a
// non-nil oracle gets a second opinion: accesses it proves byte-disjoint
// neither invalidate forwarded values nor observe pending stores.
func MemOptWith(f *ir.Func, orc AliasOracle) int {
	esc := analysis.Escapes(f)
	n := 0
	type av struct {
		loc  memLoc
		addr *ir.Value // the address value (for oracle queries)
		size uint8
		val  *ir.Value // last stored/loaded value (for forwarding)
		st   *ir.Value // the store (for DSE), nil if from a load
		live bool      // store observed by a later load
	}
	// disjoint asks the oracle to separate two accesses; false without one.
	disjoint := func(a *ir.Value, asz uint8, b *ir.Value, bsz uint8) bool {
		return orc != nil && a != nil && b != nil &&
			orc.MustNotAlias(a, accSz(asz), b, accSz(bsz))
	}
	for _, b := range f.Blocks {
		var avail []*av
		invalidate := func(addr *ir.Value, loc memLoc, size uint8) {
			out := avail[:0]
			for _, e := range avail {
				kill := false
				switch {
				case loc.base != nil && e.loc.base != nil:
					kill = overlap(loc, size, e.loc, e.size)
				case loc.base == nil && e.loc.base == nil:
					kill = !loc.known || !e.loc.known || overlap(loc, size, e.loc, e.size)
				case loc.base == nil && e.loc.base != nil:
					kill = esc[e.loc.base] // unknown pointer may hit escaped allocas
				case loc.base != nil && e.loc.base == nil:
					kill = true
				}
				if kill && disjoint(addr, size, e.addr, e.size) {
					kill = false
				}
				if !kill {
					out = append(out, e)
				}
			}
			avail = out
		}
		clobberCalls := func() {
			out := avail[:0]
			for _, e := range avail {
				if e.loc.base != nil && !esc[e.loc.base] {
					out = append(out, e)
					continue
				}
			}
			avail = out
		}
		var deadStores []*ir.Value
		for _, v := range b.Insts {
			switch v.Op {
			case ir.OpLoad:
				loc := resolveLoc(v.Args[0])
				if loc.known || loc.base != nil {
					hit := false
					for _, e := range avail {
						if e.loc == loc && e.size == v.Size && e.loc.known {
							// Forward: stored value has full width for
							// 4-byte slots; sub-word loads keep the load
							// (extension semantics).
							if v.Size == 4 {
								ReplaceUses(f, v, e.val)
								e.live = true
								hit = true
								n++
							}
							break
						}
					}
					if hit {
						continue
					}
					// Loads observe stores.
					for _, e := range avail {
						if e.st != nil && overlap(loc, v.Size, e.loc, e.size) &&
							!disjoint(v.Args[0], v.Size, e.addr, e.size) {
							e.live = true
						}
					}
					if loc.base == nil && !loc.known {
						// Unknown load: anything escaped may be read.
						for _, e := range avail {
							if e.st != nil && (e.loc.base == nil || esc[e.loc.base]) &&
								!disjoint(v.Args[0], v.Size, e.addr, e.size) {
								e.live = true
							}
						}
					}
					avail = append(avail, &av{loc: loc, addr: v.Args[0], size: v.Size, val: v})
				} else {
					// Fully unknown address: all stores may be observed.
					for _, e := range avail {
						if e.st != nil && !disjoint(v.Args[0], v.Size, e.addr, e.size) {
							e.live = true
						}
					}
				}
			case ir.OpStore:
				loc := resolveLoc(v.Args[0])
				// A previous un-observed store to the exact location dies.
				if loc.known {
					for _, e := range avail {
						if e.st != nil && !e.live && e.loc == loc && e.size == v.Size {
							deadStores = append(deadStores, e.st)
							n++
						}
					}
				}
				invalidate(v.Args[0], loc, v.Size)
				if loc.known || loc.base != nil {
					avail = append(avail, &av{loc: loc, addr: v.Args[0], size: v.Size, val: v.Args[1], st: v})
				} else {
					// Unknown store: clobber everything that may alias.
					out := avail[:0]
					for _, e := range avail {
						if (e.loc.base != nil && !esc[e.loc.base]) ||
							disjoint(v.Args[0], v.Size, e.addr, e.size) {
							out = append(out, e)
						}
					}
					avail = out
				}
			case ir.OpCall, ir.OpCallInd, ir.OpCallExt, ir.OpCallExtRaw:
				// Callees may read escaped locations: stores to them stay
				// live; entries for them invalidate.
				for _, e := range avail {
					if e.st != nil && (e.loc.base == nil || esc[e.loc.base]) {
						e.live = true
					}
				}
				clobberCalls()
			}
		}
		if len(deadStores) > 0 {
			dead := make(map[*ir.Value]bool, len(deadStores))
			for _, s := range deadStores {
				dead[s] = true
			}
			insts := b.Insts[:0]
			for _, v := range b.Insts {
				if !dead[v] {
					insts = append(insts, v)
				}
			}
			b.Insts = insts
		}
	}
	return n
}

// DSEGlobal removes stores that no later load can observe, across blocks:
// the analysis layer's backward liveness proves which stack stores are
// invisible (non-escaped object, no reachable load), strictly more than
// the block-local DSE inside MemOpt can see.
func DSEGlobal(f *ir.Func) int {
	dead := analysis.DeadStores(f, analysis.Escape(f))
	if len(dead) == 0 {
		return 0
	}
	kill := make(map[*ir.Value]bool, len(dead))
	for _, s := range dead {
		kill[s] = true
	}
	for _, b := range f.Blocks {
		insts := b.Insts[:0]
		for _, v := range b.Insts {
			if !kill[v] {
				insts = append(insts, v)
			}
		}
		b.Insts = insts
	}
	return len(dead)
}

// CSE performs block-local common-subexpression elimination over pure ops.
func CSE(f *ir.Func) int {
	n := 0
	type key struct {
		op     ir.Op
		a, b   *ir.Value
		c      int32
		cond   uint8
		size   uint8
		signed bool
	}
	for _, blk := range f.Blocks {
		seen := map[key]*ir.Value{}
		for _, v := range blk.Insts {
			var k key
			switch {
			case v.Op.IsBinALU() || v.Op == ir.OpCmp || v.Op == ir.OpSubreg8:
				k = key{op: v.Op, a: v.Args[0], b: v.Args[1], cond: uint8(v.Cond)}
			case v.Op == ir.OpConst:
				k = key{op: v.Op, c: v.Const}
			case v.Op == ir.OpNeg || v.Op == ir.OpNot:
				k = key{op: v.Op, a: v.Args[0]}
			case v.Op == ir.OpSext || v.Op == ir.OpZext:
				k = key{op: v.Op, a: v.Args[0], size: v.Size}
			default:
				continue
			}
			if prev, ok := seen[k]; ok {
				ReplaceUses(f, v, prev)
				n++
				continue
			}
			seen[k] = v
		}
	}
	if n > 0 {
		DCE(f)
	}
	return n
}

// PipelineOpts disables individual passes (for the ablation experiments)
// and optionally supplies an alias oracle.
type PipelineOpts struct {
	NoMem2Reg bool // skip stack-slot promotion
	NoMemOpt  bool // skip store-to-load forwarding and dead-store removal
	NoLICM    bool // skip loop-invariant code motion
	// Oracle, when non-nil, supplies a per-function alias oracle. It is
	// called twice per function and round: before the oracle-driven
	// rewrites (ResolveAddrs, ForwardStores) and again before MemOptWith,
	// because the passes in between rewrite the IR the oracle's facts are
	// keyed on. The oracle must describe the function as it is at the
	// call; a factory may hand out a stored one for a function that has
	// provably not changed since it was built (core.Pipeline.Oracle does).
	Oracle func(*ir.Func) AliasOracle
	// Typed, when non-nil, supplies the per-function typed-slot partition
	// consumed by SplitSlots. Returning a nil TypedInfo skips the
	// function.
	Typed func(*ir.Func) TypedInfo
}

// Pipeline runs the full optimizer to a fixpoint (bounded), mirroring the
// paper's use of the stock LLVM pass pipeline on refined IR.
func Pipeline(m *ir.Module) { PipelineWith(m, PipelineOpts{}) }

// PipelineWith runs the optimizer with selected passes disabled and returns
// the stack objects mem2reg promoted to SSA registers (still "recovered"
// variables for accuracy accounting, just no longer memory-resident).
func PipelineWith(m *ir.Module, o PipelineOpts) *layout.Program {
	promoted, _ := PipelineWithDebug(m, o, nil)
	return promoted
}

// PipelineWithDebug runs the optimizer like PipelineWith and additionally
// invokes check after every pass application, with the pass name. A
// non-nil error from check aborts optimization immediately and is returned
// with the promotions made so far — the debug pass-manager mode used to
// bisect which pass broke an invariant.
func PipelineWithDebug(m *ir.Module, o PipelineOpts, check func(pass string) error) (*layout.Program, error) {
	promoted := layout.NewProgram()
	step := func(pass string) error {
		if check == nil {
			return nil
		}
		return check(pass)
	}
	for round := 0; round < 8; round++ {
		changed := 0
		if o.Typed != nil {
			for _, f := range m.Funcs {
				changed += SplitSlots(f, o.Typed(f))
			}
			if err := step("split"); err != nil {
				return promoted, err
			}
		}
		if !o.NoMem2Reg {
			for _, f := range m.Funcs {
				changed += Mem2RegLog(f, promoted)
			}
			if err := step("mem2reg"); err != nil {
				return promoted, err
			}
		}
		changed += FoldModule(m)
		if err := step("fold"); err != nil {
			return promoted, err
		}
		if !o.NoLICM {
			changed += LICMModule(m)
			if err := step("licm"); err != nil {
				return promoted, err
			}
		}
		if o.Oracle != nil {
			for _, f := range m.Funcs {
				orc := o.Oracle(f)
				changed += ResolveAddrs(f, orc)
				changed += ForwardStores(f, orc)
			}
			if err := step("vsa"); err != nil {
				return promoted, err
			}
		}
		for _, f := range m.Funcs {
			changed += CSE(f)
			if !o.NoMemOpt {
				var orc AliasOracle
				if o.Oracle != nil {
					orc = o.Oracle(f)
				}
				changed += MemOptWith(f, orc)
				changed += DSEGlobal(f)
			}
			if SimplifyCFG(f) {
				changed++
			}
			changed += DCE(f)
			RemoveDeadAllocas(f)
		}
		if err := step("local"); err != nil {
			return promoted, err
		}
		if changed == 0 {
			break
		}
	}
	return promoted, nil
}
