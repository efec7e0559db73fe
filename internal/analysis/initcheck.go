package analysis

import "wytiwyg/internal/ir"

// Definite-initialization analysis for promoted stack slots: a forward
// must-analysis tracking which allocas have been stored to on *every* path
// from entry. A load through a slot outside that set may read memory no
// one initialized — legitimate in lifted binary code (padding, spilled
// don't-care bytes) but suspicious enough to surface, so it reports Warn
// rather than Error. Granularity is per-object: one store anywhere inside
// an object initializes it, which keeps the check cheap and errs toward
// silence rather than noise.

// initState is the must-set of initialized allocas. all is the optimistic
// bottom (the identity of intersection: "every alloca", before any path
// has been seen).
type initState struct {
	all bool
	set map[*ir.Value]bool
}

// copyInit makes dst a copy of src, reusing dst's set (nil allocates).
func copyInit(dst, src initState) initState {
	dst.all = src.all
	if dst.set == nil {
		dst.set = make(map[*ir.Value]bool, len(src.set))
	} else {
		clear(dst.set)
	}
	for k := range src.set {
		dst.set[k] = true
	}
	return dst
}

func joinInit(dst, src initState) (initState, bool) {
	if src.all {
		return dst, false
	}
	if dst.all {
		return copyInit(dst, src), true
	}
	changed := false
	for k := range dst.set {
		if !src.set[k] {
			delete(dst.set, k)
			changed = true
		}
	}
	return dst, changed
}

// initTransfer applies one instruction's effect to the must-set. Stores
// through an unknown pointer and calls can only touch escaped objects, so
// they conservatively initialize exactly those.
func initTransfer(v *ir.Value, st initState, esc EscapeFacts) {
	markEscaped := func() {
		for a := range esc.Escaped {
			st.set[a] = true
		}
	}
	switch v.Op {
	case ir.OpStore:
		if root, ok := esc.Roots[v.Args[0]]; ok {
			st.set[root] = true
		} else {
			markEscaped()
		}
	case ir.OpCall, ir.OpCallInd, ir.OpCallExt, ir.OpCallExtRaw:
		markEscaped()
	}
}

// initProblem is the forward must-initialization instance of the engine.
func initProblem(esc EscapeFacts) Problem[initState] {
	return Problem[initState]{
		Forward:  true,
		Boundary: func(*ir.Func) initState { return initState{set: map[*ir.Value]bool{}} },
		Bottom:   func() initState { return initState{all: true} },
		Join:     joinInit,
		Copy:     copyInit,
		Transfer: func(b *ir.Block, in initState) initState {
			for _, v := range b.Insts {
				initTransfer(v, in, esc)
			}
			return in
		},
	}
}

// CheckInit reports loads from stack slots that some path reaches without
// a prior store. Returns the number of flagged loads.
func CheckInit(f *ir.Func, esc EscapeFacts, rep *Report) int {
	res := Solve(f, initProblem(esc))
	flagged := 0
	for _, b := range f.Blocks {
		in, ok := res.In[b]
		if !ok || in.all {
			continue
		}
		st := copyInit(initState{}, in)
		for _, v := range b.Insts {
			if v.Op == ir.OpLoad {
				if root, ok := esc.Roots[v.Args[0]]; ok && !st.set[root] {
					flagged++
					rep.Addf("init", Warn, f.Name, v,
						"load from %q may read uninitialized stack memory", root.Name)
				}
			}
			initTransfer(v, st, esc)
		}
	}
	return flagged
}
