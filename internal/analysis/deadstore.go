package analysis

import "wytiwyg/internal/ir"

// Dead-store analysis: a backward may-liveness over allocas. An alloca is
// live at a program point when some path from that point may still load
// from it (directly, through an unknown pointer if it has escaped, or
// inside a callee if it has escaped). A store to a non-escaped alloca that
// is dead right after the store can never be observed — the frame vanishes
// at return — so the optimizer may delete it. The analysis is
// offset-insensitive: it never treats an overwriting store as a kill,
// which only errs toward keeping stores.

type liveEnv map[*ir.Value]bool

// copyLive makes dst a copy of src, reusing dst's map (nil allocates).
func copyLive(dst, src liveEnv) liveEnv {
	if dst == nil {
		dst = make(liveEnv, len(src))
	} else {
		clear(dst)
	}
	for k := range src {
		dst[k] = true
	}
	return dst
}

func joinLive(dst, src liveEnv) (liveEnv, bool) {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return dst, changed
}

// liveTransfer applies one instruction's effect to the live set, walking
// backward: loads (and anything that could load — calls, unknown-pointer
// dereferences) generate liveness.
func liveTransfer(v *ir.Value, live liveEnv, esc EscapeFacts) {
	markEscaped := func() {
		for a := range esc.Escaped {
			live[a] = true
		}
	}
	switch v.Op {
	case ir.OpLoad:
		if root, ok := esc.Roots[v.Args[0]]; ok {
			live[root] = true
		} else {
			markEscaped()
		}
	case ir.OpCall, ir.OpCallInd, ir.OpCallExt, ir.OpCallExtRaw:
		markEscaped()
	}
}

// deadStoreProblem is the backward liveness instance of the engine.
func deadStoreProblem(esc EscapeFacts) Problem[liveEnv] {
	return Problem[liveEnv]{
		Forward: false,
		// At function exit only escaped allocas can still be observed.
		Boundary: func(*ir.Func) liveEnv { return copyLive(nil, liveEnv(esc.Escaped)) },
		Bottom:   func() liveEnv { return liveEnv{} },
		Join:     joinLive,
		Copy:     copyLive,
		Transfer: func(b *ir.Block, out liveEnv) liveEnv {
			for i := len(b.Insts) - 1; i >= 0; i-- {
				liveTransfer(b.Insts[i], out, esc)
			}
			return out
		},
	}
}

// DeadStores returns f's provably dead stack stores: stores to a
// non-escaped alloca that no later load can observe.
func DeadStores(f *ir.Func, esc EscapeFacts) []*ir.Value {
	res := Solve(f, deadStoreProblem(esc))
	var dead []*ir.Value
	for _, b := range f.Blocks {
		out, ok := res.Out[b]
		if !ok {
			continue
		}
		live := copyLive(nil, out)
		for i := len(b.Insts) - 1; i >= 0; i-- {
			v := b.Insts[i]
			if v.Op == ir.OpStore {
				if root, ok := esc.Roots[v.Args[0]]; ok && !esc.Escaped[root] && !live[root] {
					dead = append(dead, v)
				}
			}
			liveTransfer(v, live, esc)
		}
	}
	return dead
}

// CheckDeadStores reports dead stores as Info findings and returns them.
func CheckDeadStores(f *ir.Func, esc EscapeFacts, rep *Report) []*ir.Value {
	dead := DeadStores(f, esc)
	for _, v := range dead {
		root := esc.Roots[v.Args[0]]
		rep.Addf("deadstore", Info, f.Name, v,
			"store to %q is never loaded afterwards", root.Name)
	}
	return dead
}
