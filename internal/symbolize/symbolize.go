// Package symbolize implements the transformation half of the paper's
// second refinement (§4.2.6, "Replacing Base Pointers"): the traced
// StackVar bounds, linked sets and argument-slot observations are turned
// into an explicit stack layout per function, and the module is rewritten so
// that
//
//   - every coalesced stack object becomes a distinct Alloca (overlapping
//     ranges merge; linked base pointers share a symbol, their ranges
//     merging only when both are defined);
//   - every direct stack reference is relabelled as alloca+delta;
//   - stack-passed arguments join function signatures (call-site argument
//     lists are merged into per-function super signatures with gaps filled,
//     §4.2.5/§4.2.6), callers pass them explicitly, and callees spill them
//     into arg-slot allocas so address-taken parameters keep working;
//   - the virtual stack pointer disappears from every signature, and the
//     emulated stack is removed from the module.
package symbolize

import (
	"fmt"
	"sort"
	"strings"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/par"
	"wytiwyg/internal/stackref"
	"wytiwyg/internal/vartrack"
)

// variable is one coalesced stack object.
type variable struct {
	lo, hi  int32 // absolute sp0-relative extent
	defined bool
	align   uint32
	alloca  *ir.Value
	// members records the defined members' base offsets (for exact-offset
	// resolution).
	members map[int32]bool
}

type fnInfo struct {
	f         *ir.Func
	vars      []*variable
	espParam  *ir.Value
	stackArgs int
	argParams []*ir.Value
	// newRetRegs is the return tuple after ESP leaves it.
	newRetRegs []isa.Reg
	// varOf maps each traced StackVar to its coalesced variable: base
	// pointers resolve through their own group, never by raw offset (two
	// objects can share a boundary offset — an end pointer one past an
	// array coincides with the next slot).
	varOf map[*vartrack.StackVar]*variable
	res   *vartrack.Result
}

// Apply symbolizes the whole module and returns the recovered layout
// (locals only, for the Figure 7 comparison).
func Apply(mod *ir.Module, offs map[*ir.Func]stackref.Offsets,
	res *vartrack.Result) (*layout.Program, error) {
	return ApplyJobs(mod, offs, res, 1)
}

// ApplyJobs is Apply over a bounded worker pool. The phases keep their
// barrier structure — every function finishes phase N before any enters
// phase N+1 — but within a phase, functions are processed concurrently:
// coalescing, frame building and reference replacement touch only their
// own function, and call-site rewriting reads only callee state frozen by
// the preceding barrier. Results and errors are collected in module
// function order, so the outcome is independent of the worker count.
func ApplyJobs(mod *ir.Module, offs map[*ir.Func]stackref.Offsets,
	res *vartrack.Result, jobs int) (*layout.Program, error) {

	infos := make(map[*ir.Func]*fnInfo, len(mod.Funcs))

	// Unified stack-argument counts: indirect-call target groups share one
	// super signature.
	argCount := make(map[*ir.Func]int, len(mod.Funcs))
	for _, f := range mod.Funcs {
		n := 0
		for slot := range res.ArgSlots[f] {
			if slot+1 > n {
				n = slot + 1
			}
		}
		argCount[f] = n
	}
	for _, group := range mod.IndirectGroups() {
		max := 0
		for _, f := range group {
			if argCount[f] > max {
				max = argCount[f]
			}
		}
		for _, f := range group {
			argCount[f] = max
		}
	}

	// Phase A: coalesce each function's variables.
	fis := make([]*fnInfo, len(mod.Funcs))
	if err := par.ForEach(jobs, len(mod.Funcs), func(i int) error {
		f := mod.Funcs[i]
		fi, err := coalesce(f, res, argCount[f])
		if err != nil {
			return fmt.Errorf("symbolize: %s: %w", f.Name, err)
		}
		fis[i] = fi
		return nil
	}); err != nil {
		return nil, err
	}
	for i, f := range mod.Funcs {
		infos[f] = fis[i]
	}

	// Phase B: materialize allocas and stack-argument parameters.
	par.ForEach(jobs, len(mod.Funcs), func(i int) error {
		buildFrame(infos[mod.Funcs[i]])
		return nil
	})

	// Phase C: shrink return tuples (drop ESP).
	for _, f := range mod.Funcs {
		fi := infos[f]
		for _, r := range f.RetRegs {
			if r != isa.ESP {
				fi.newRetRegs = append(fi.newRetRegs, r)
			}
		}
		espRet := f.RetIndexOf(isa.ESP)
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpRet {
				continue
			}
			if espRet >= 0 {
				t.Args = append(append([]*ir.Value{}, t.Args[:espRet]...), t.Args[espRet+1:]...)
			}
		}
	}

	// Phase D: rewrite call sites (explicit stack arguments, no ESP).
	// rewriteCalls mutates only its own function; the callee facts it reads
	// (Params, stackArgs, newRetRegs) were frozen by phases B and C.
	if err := par.ForEach(jobs, len(mod.Funcs), func(i int) error {
		f := mod.Funcs[i]
		if err := rewriteCalls(infos[f], infos, offs[f]); err != nil {
			return fmt.Errorf("symbolize: %s: %w", f.Name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// External calls read their arguments from outgoing slots too: those
	// slots are call plumbing, not recovered variables.
	for _, f := range mod.Funcs {
		fi := infos[f]
		fo := offs[f]
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op != ir.OpCallExt && v.Op != ir.OpCallExtRaw {
					continue
				}
				for _, a := range v.Args {
					if a.Op == ir.OpLoad {
						if c, ok := fo[a.Args[0]]; ok {
							fi.markPlumbing(c, c+4)
						}
					}
					if c, ok := fo[a]; ok { // raw form: the ESP value itself
						fi.markPlumbing(c, c+4)
					}
				}
			}
		}
	}

	// Commit the shrunk return signatures.
	for _, f := range mod.Funcs {
		f.RetRegs = infos[f].newRetRegs
		f.NumRet = len(f.RetRegs)
	}
	opt.DCEModule(mod)

	// Phase E: replace surviving direct stack references.
	if err := par.ForEach(jobs, len(mod.Funcs), func(i int) error {
		f := mod.Funcs[i]
		if err := replaceRefs(infos[f], offs[f]); err != nil {
			return fmt.Errorf("symbolize: %s: %w", f.Name, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase F: finalize parameter lists (drop ESP, add stack args).
	for _, f := range mod.Funcs {
		fi := infos[f]
		var params []*ir.Value
		for _, p := range f.Params {
			if p.RegHint == isa.ESP {
				// Remaining uses would be unreplaced stack references.
				p.Op = ir.OpConst
				p.Const = 0
				p.Block = f.Entry()
				f.Entry().Insts = append([]*ir.Value{p}, f.Entry().Insts...)
				continue
			}
			params = append(params, p)
		}
		params = append(params, fi.argParams...)
		for i, p := range params {
			p.Idx = i
		}
		f.Params = params
		f.StackArgs = fi.stackArgs
	}
	opt.DCEModule(mod)
	mod.EmuStackSize = 0

	if err := ir.Verify(mod); err != nil {
		return nil, err
	}

	// Recovered layout: local-area objects only (negative sp0 offsets).
	prog := layout.NewProgram()
	for _, f := range mod.Funcs {
		fr := &layout.Frame{Func: f.Name}
		for i, v := range infos[f].vars {
			if !v.defined || v.lo >= 0 {
				continue
			}
			if v.alloca != nil && strings.HasPrefix(v.alloca.Name, "cp_") {
				continue
			}
			fr.Vars = append(fr.Vars, layout.Var{
				Name:   fmt.Sprintf("v%d", i),
				Offset: v.lo,
				Size:   uint32(v.hi - v.lo),
			})
		}
		fr.Sort()
		prog.Add(fr)
	}
	return prog, nil
}

// coalesce merges a function's StackVars into variables: linked pairs share
// a symbol; overlapping defined ranges merge.
func coalesce(f *ir.Func, res *vartrack.Result, stackArgs int) (*fnInfo, error) {
	vars := res.SortedVars(f)
	parent := make(map[*vartrack.StackVar]*vartrack.StackVar, len(vars))
	var find func(v *vartrack.StackVar) *vartrack.StackVar
	find = func(v *vartrack.StackVar) *vartrack.StackVar {
		if parent[v] == nil || parent[v] == v {
			parent[v] = v
			return v
		}
		r := find(parent[v])
		parent[v] = r
		return r
	}
	union := func(a, b *vartrack.StackVar) { parent[find(a)] = find(b) }

	// Linked base pointers (pointer differences/comparisons) coalesce,
	// within one function.
	for _, pair := range res.Linked {
		if pair[0].Fn == f && pair[1].Fn == f {
			union(pair[0], pair[1])
		}
	}
	// Overlapping defined ranges coalesce. Iterate to a fixpoint because a
	// union can widen a group's range.
	for changed := true; changed; {
		changed = false
		type groupRange struct {
			root   *vartrack.StackVar
			lo, hi int32
			any    bool
		}
		groups := map[*vartrack.StackVar]*groupRange{}
		for _, v := range vars {
			r := find(v)
			g := groups[r]
			if g == nil {
				g = &groupRange{root: r}
				groups[r] = g
			}
			if v.Defined {
				lo, hi := v.AbsRange()
				if !g.any {
					g.lo, g.hi, g.any = lo, hi, true
				} else {
					if lo < g.lo {
						g.lo = lo
					}
					if hi > g.hi {
						g.hi = hi
					}
				}
			}
		}
		var defined []*groupRange
		for _, g := range groups {
			if g.any {
				defined = append(defined, g)
			}
		}
		sort.Slice(defined, func(i, j int) bool { return defined[i].lo < defined[j].lo })
		for i := 1; i < len(defined); i++ {
			if defined[i].lo < defined[i-1].hi && find(defined[i].root) != find(defined[i-1].root) {
				union(defined[i].root, defined[i-1].root)
				changed = true
			}
		}
	}

	// Build variables.
	fi := &fnInfo{f: f, espParam: f.ParamByReg(isa.ESP), stackArgs: stackArgs,
		varOf: map[*vartrack.StackVar]*variable{}, res: res}
	byRoot := map[*vartrack.StackVar]*variable{}
	for _, v := range vars {
		r := find(v)
		g := byRoot[r]
		if g == nil {
			g = &variable{members: map[int32]bool{}}
			byRoot[r] = g
			fi.vars = append(fi.vars, g)
		}
		fi.varOf[v] = g
		if v.Defined {
			g.members[v.SPOff] = true
		}
		if v.Defined {
			lo, hi := v.AbsRange()
			if !g.defined {
				g.lo, g.hi, g.defined = lo, hi, true
			} else {
				if lo < g.lo {
					g.lo = lo
				}
				if hi > g.hi {
					g.hi = hi
				}
			}
		}
		if v.Align > g.align {
			g.align = v.Align
		}
	}
	// Undefined-only groups: zero evidence of size. Give them a minimal
	// placeholder extent at the lowest member offset; references through
	// them are never dereferenced on traced inputs (§7.2).
	for _, v := range vars {
		g := byRoot[find(v)]
		if !g.defined {
			if g.hi == g.lo && g.hi == 0 {
				g.lo, g.hi = v.SPOff, v.SPOff+4
			} else if v.SPOff < g.lo {
				g.lo = v.SPOff
			}
		}
	}
	var kept []*variable
	for _, g := range fi.vars {
		if g.defined {
			kept = append(kept, g)
			continue
		}
		// An undefined-only group covered by (or ending exactly at) a
		// defined variable labels that variable: a pointer that is only
		// ever passed along still belongs to the object at its position.
		var host *variable
		for _, h := range fi.vars {
			if h.defined && g.lo >= h.lo && g.lo < h.hi {
				host = h
				break
			}
		}
		if host == nil {
			// End-pointer position: one past a defined object.
			for _, h := range fi.vars {
				if h.defined && g.lo == h.hi {
					host = h
					break
				}
			}
		}
		if host == nil {
			kept = append(kept, g)
			continue
		}
		for sv, gg := range fi.varOf {
			if gg == g {
				fi.varOf[sv] = host
			}
		}
	}
	fi.vars = kept
	sort.Slice(fi.vars, func(i, j int) bool { return fi.vars[i].lo < fi.vars[j].lo })
	return fi, nil
}

// buildFrame creates the allocas and stack-argument parameters for one
// function, and spills incoming stack args into their allocas.
func buildFrame(fi *fnInfo) {
	f := fi.f
	entry := f.Entry()
	var prefix []*ir.Value

	// Each incoming stack argument is spilled as a whole 4-byte word
	// (below). An argument-area object that covers only the start of its
	// word, such as a char parameter's, is widened to the whole word,
	// unless another object lies in the rest of it.
	for _, v := range fi.vars {
		for i := 0; i < fi.stackArgs; i++ {
			slot := int32(4 + 4*i)
			if v.lo >= 4 && v.lo <= slot && slot < v.hi && v.hi < slot+4 && !fi.occupied(v.hi, slot+4) {
				v.hi = slot + 4
			}
		}
	}

	for i, v := range fi.vars {
		size := uint32(v.hi - v.lo)
		if size == 0 {
			size = 4
		}
		al := v.align
		if al < 4 {
			al = 4
		}
		a := f.NewValue(ir.OpAlloca)
		a.AllocSize = size
		a.Align = al
		a.Name = fmt.Sprintf("v%d", i)
		// Stash the sp0-relative start offset for layout reporting.
		a.Const = v.lo
		a.Block = entry
		v.alloca = a
		prefix = append(prefix, a)
	}

	// Stack-argument parameters (super signature, gaps filled).
	for i := 0; i < fi.stackArgs; i++ {
		p := f.NewValue(ir.OpParam)
		p.RegHint = isa.NoReg
		p.Name = fmt.Sprintf("sarg%d", i)
		fi.argParams = append(fi.argParams, p)
	}
	// Spill incoming stack arguments into the arg-area allocas so that
	// address-taken parameters keep a memory home.
	for _, v := range fi.vars {
		if v.lo < 4 || v.alloca == nil {
			continue
		}
		for i := 0; i < fi.stackArgs; i++ {
			slotOff := int32(4 + 4*i)
			if slotOff < v.lo || slotOff >= v.hi {
				continue
			}
			addr := v.alloca
			if d := slotOff - v.lo; d != 0 {
				k := f.NewValue(ir.OpConst)
				k.Const = d
				k.Block = entry
				add := f.NewValue(ir.OpAdd, v.alloca, k)
				add.Block = entry
				prefix = append(prefix, k, add)
				addr = add
			}
			st := f.NewValue(ir.OpStore, addr, fi.argParams[i])
			st.Size = 4
			st.Block = entry
			prefix = append(prefix, st)
		}
	}
	entry.Insts = append(prefix, entry.Insts...)
}

// occupied reports whether any variable overlaps [lo, hi).
func (fi *fnInfo) occupied(lo, hi int32) bool {
	for _, v := range fi.vars {
		if v.lo < hi && lo < v.hi {
			return true
		}
	}
	return false
}

// markPlumbing flags the variables covering [lo, hi) as call-frame
// plumbing (outgoing arguments, return-address slots): after symbolization
// these are not part of the recovered stack layout — they became explicit
// call arguments.
func (fi *fnInfo) markPlumbing(lo, hi int32) {
	for _, v := range fi.vars {
		if v.alloca == nil {
			continue
		}
		// Containment, not overlap: a coarse variable that merely reaches
		// into the call window (a static symbolizer's blob, say) is still a
		// recovered object.
		if v.lo >= lo && v.hi <= hi && !strings.HasPrefix(v.alloca.Name, "cp_") {
			v.alloca.Name = "cp_" + v.alloca.Name
		}
	}
}

// addrFor resolves an sp0 offset to (alloca, delta). A variable with a
// defined member base pointer exactly at the offset wins; otherwise any
// variable covering the offset; otherwise a variable ending exactly there
// (end pointers).
func (fi *fnInfo) addrFor(spoff int32) (*ir.Value, int32, error) {
	for _, v := range fi.vars {
		if v.alloca != nil && v.members[spoff] {
			return v.alloca, spoff - v.lo, nil
		}
	}
	for _, v := range fi.vars {
		if v.alloca != nil && spoff >= v.lo && spoff < v.hi {
			return v.alloca, spoff - v.lo, nil
		}
	}
	for _, v := range fi.vars {
		if v.alloca != nil && spoff == v.hi {
			return v.alloca, v.hi - v.lo, nil
		}
	}
	return nil, 0, fmt.Errorf("no variable covers sp0%+d", spoff)
}

// addrForValue resolves a specific base-pointer value through its own
// traced variable group, falling back to offset lookup.
func (fi *fnInfo) addrForValue(v *ir.Value, spoff int32) (*ir.Value, int32, error) {
	if sv := fi.res.Vars[v]; sv != nil {
		if g := fi.varOf[sv]; g != nil && g.alloca != nil {
			return g.alloca, spoff - g.lo, nil
		}
	}
	return fi.addrFor(spoff)
}

// addrValueFor materializes an address value for an sp0 offset, inserting
// helper instructions before position pos in block b. It returns the value
// and how many instructions were inserted.
func (fi *fnInfo) addrValueFor(spoff int32, b *ir.Block, pos int) (*ir.Value, int, error) {
	base, delta, err := fi.addrFor(spoff)
	if err != nil {
		return nil, 0, err
	}
	if delta == 0 {
		return base, 0, nil
	}
	k := fi.f.NewValue(ir.OpConst)
	k.Const = delta
	k.Block = b
	add := fi.f.NewValue(ir.OpAdd, base, k)
	add.Block = b
	b.Insts = append(b.Insts[:pos], append([]*ir.Value{k, add}, b.Insts[pos:]...)...)
	return add, 2, nil
}

// rewriteCalls converts every internal call to the symbolized convention.
func rewriteCalls(fi *fnInfo, infos map[*ir.Func]*fnInfo, offs stackref.Offsets) error {
	f := fi.f
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			switch v.Op {
			case ir.OpCall, ir.OpCallInd:
				base := 0
				var callee *ir.Func
				if v.Op == ir.OpCallInd {
					base = 1
					if len(v.Targets) == 0 {
						return fmt.Errorf("indirect call %s without targets", v)
					}
					callee = v.Targets[0]
				} else {
					callee = v.Callee
				}
				ci := infos[callee]
				// Locate the callee's ESP parameter position in the
				// *current* (pre-symbolize) parameter list.
				espIdx := -1
				for j, p := range callee.Params {
					if p.RegHint == isa.ESP {
						espIdx = j
						break
					}
				}
				if espIdx < 0 {
					return fmt.Errorf("call %s: callee %s has no ESP param", v, callee.Name)
				}
				espArg := v.Args[base+espIdx]
				e, ok := offs[espArg]
				if !ok {
					return fmt.Errorf("call %s: ESP argument is not a direct stack reference", v)
				}
				fi.markPlumbing(e, e+4+int32(4*ci.stackArgs))
				// New argument list: register args minus ESP, then explicit
				// stack arguments loaded from this frame's outgoing area.
				var args []*ir.Value
				if base == 1 {
					args = append(args, v.Args[0])
				}
				for j, p := range callee.Params {
					if p.RegHint != isa.ESP {
						args = append(args, v.Args[base+j])
					}
				}
				for s := 0; s < ci.stackArgs; s++ {
					addr, n, err := fi.addrValueFor(e+4+int32(4*s), b, i)
					if err != nil {
						return fmt.Errorf("call %s arg %d: %w", v, s, err)
					}
					i += n
					ld := f.NewValue(ir.OpLoad, addr)
					ld.Size = 4
					ld.Block = b
					b.Insts = append(b.Insts[:i], append([]*ir.Value{ld}, b.Insts[i:]...)...)
					i++
					args = append(args, ld)
				}
				v.Args = args
				v.NumRet = len(ci.newRetRegs)
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
				// Remap from the old return tuple to the ESP-free one.
				oldRegs := callee.RetRegs
				if v.Idx >= len(oldRegs) {
					continue // already remapped (multiple passes are idempotent)
				}
				r := oldRegs[v.Idx]
				if r == isa.ESP {
					// Stack-pointer results were folded by the
					// stack-reference refinement; a surviving extract must
					// be dead.
					v.Op = ir.OpConst
					v.Const = 0
					v.Args = nil
					continue
				}
				idx := -1
				for j, rr := range infos[callee].newRetRegs {
					if rr == r {
						idx = j
						break
					}
				}
				if idx < 0 {
					return fmt.Errorf("extract %s: register %v vanished from %s", v, r, callee.Name)
				}
				v.Idx = idx
			}
		}
	}
	return nil
}

// replaceRefs rewrites every surviving direct stack reference to
// alloca+delta.
func replaceRefs(fi *fnInfo, offs stackref.Offsets) error {
	f := fi.f
	uses := ir.BuildUses(f)
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Insts); i++ {
			v := b.Insts[i]
			c, ok := offs[v]
			if !ok || v.Op == ir.OpParam || v.Op == ir.OpAlloca {
				continue
			}
			if len(uses.Of(v)) == 0 {
				continue // dead; DCE will take it
			}
			base, delta, err := fi.addrForValue(v, c)
			if err != nil {
				return fmt.Errorf("ref %s (sp0%+d): %w", v, c, err)
			}
			if delta == 0 {
				opt.ReplaceUses(f, v, base)
				continue
			}
			k := f.NewValue(ir.OpConst)
			k.Const = delta
			k.Block = b
			v.Op = ir.OpAdd
			v.Args = []*ir.Value{base, k}
			b.Insts = append(b.Insts[:i], append([]*ir.Value{k}, b.Insts[i:]...)...)
			i++
		}
	}
	return nil
}

// RecoveredLayout derives the recovered stack layout from the allocas that
// survive in a module. Calling it after the optimizer has run reports only
// the objects that still exist — spill slots and call-plumbing areas that
// mem2reg and dead-store elimination removed no longer count, mirroring how
// the paper's recovered layouts reflect the final recompiled binary.
// Only local-area objects (negative sp0 offsets) are reported.
func RecoveredLayout(mod *ir.Module) *layout.Program {
	prog := layout.NewProgram()
	for _, f := range mod.Funcs {
		fr := &layout.Frame{Func: f.Name}
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op != ir.OpAlloca || v.Const >= 0 {
					continue
				}
				if strings.HasPrefix(v.Name, "cp_") {
					continue
				}
				fr.Vars = append(fr.Vars, layout.Var{
					Name:   v.Name,
					Offset: v.Const,
					Size:   v.AllocSize,
				})
			}
		}
		fr.Sort()
		prog.Add(fr)
	}
	return prog
}
