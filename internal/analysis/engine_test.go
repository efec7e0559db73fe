package analysis

import (
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// mkFunc builds a function with one entry block.
func mkFunc(name string) (*ir.Module, *ir.Func, *ir.Block) {
	m := ir.NewModule("t")
	f := m.NewFunc(name, 0x1000)
	f.NumRet = 1
	b := f.NewBlock(0)
	m.Entry = f
	return m, f, b
}

func konst(f *ir.Func, b *ir.Block, c int32) *ir.Value {
	k := f.NewValue(ir.OpConst)
	k.Const = c
	b.Append(k)
	return k
}

func edge(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// diamond builds entry -> {thenB, elseB} -> exit.
func diamond(f *ir.Func, entry *ir.Block) (thenB, elseB, exit *ir.Block) {
	thenB = f.NewBlock(0)
	elseB = f.NewBlock(0)
	exit = f.NewBlock(0)
	edge(entry, thenB)
	edge(entry, elseB)
	edge(thenB, exit)
	edge(elseB, exit)
	return
}

// pathSets is a forward may-problem whose state is the set of block IDs
// seen on some path; it exercises join, boundary, and ordering.
func pathSets(forward bool) Problem[map[int]bool] {
	return Problem[map[int]bool]{
		Forward:  forward,
		Boundary: func(*ir.Func) map[int]bool { return map[int]bool{} },
		Bottom:   func() map[int]bool { return map[int]bool{} },
		Join: func(dst, src map[int]bool) (map[int]bool, bool) {
			changed := false
			for k := range src {
				if !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return dst, changed
		},
		Copy: func(dst, src map[int]bool) map[int]bool {
			if dst == nil {
				dst = make(map[int]bool, len(src))
			}
			clear(dst)
			for k := range src {
				dst[k] = true
			}
			return dst
		},
		Transfer: func(b *ir.Block, in map[int]bool) map[int]bool {
			in[b.ID] = true
			return in
		},
	}
}

func TestSolveForwardDiamond(t *testing.T) {
	_, f, entry := mkFunc("f")
	thenB, elseB, exit := diamond(f, entry)

	res := Solve(f, pathSets(true))
	in := res.In[exit]
	for _, b := range []*ir.Block{entry, thenB, elseB} {
		if !in[b.ID] {
			t.Errorf("exit in-state missing block %d", b.ID)
		}
	}
	if in[exit.ID] {
		t.Error("exit in-state contains exit itself")
	}
	if !res.Out[exit][exit.ID] {
		t.Error("exit out-state missing exit")
	}
	if len(res.In[entry]) != 0 {
		t.Errorf("entry in-state should be boundary-empty, got %v", res.In[entry])
	}
}

func TestSolveBackwardDiamond(t *testing.T) {
	_, f, entry := mkFunc("f")
	thenB, elseB, exit := diamond(f, entry)

	res := Solve(f, pathSets(false))
	// In execution order, the entry's In is what flows out of the backward
	// transfer chain: every block below it.
	in := res.In[entry]
	for _, b := range []*ir.Block{entry, thenB, elseB, exit} {
		if !in[b.ID] {
			t.Errorf("entry backward state missing block %d", b.ID)
		}
	}
	if len(res.Out[exit]) != 0 {
		t.Errorf("exit boundary state should be empty, got %v", res.Out[exit])
	}
}

func TestSolveLoopConverges(t *testing.T) {
	// entry -> header <-> body, header -> exit: the path set over the loop
	// must reach a fixpoint containing the body at header's entry.
	_, f, entry := mkFunc("f")
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, header)
	edge(header, body)
	edge(header, exit)
	edge(body, header)

	res := Solve(f, pathSets(true))
	if !res.In[header][body.ID] {
		t.Error("loop header in-state never absorbed the back edge")
	}
	if !res.In[exit][body.ID] {
		t.Error("exit in-state missing loop body")
	}
}

func TestSolveSkipsUnreachable(t *testing.T) {
	_, f, entry := mkFunc("f")
	dead := f.NewBlock(0) // no preds, not reachable
	_ = entry
	res := Solve(f, pathSets(true))
	if _, ok := res.In[dead]; ok {
		t.Error("unreachable block was analyzed")
	}
}

func TestHeightsLoop(t *testing.T) {
	// esp cycles through a loop phi with balanced push/pop: the phi must
	// resolve to a known height, as in stackref's SCCP.
	_, f, entry := mkFunc("f")
	esp := f.NewParam(isa.ESP, "esp")
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, header)
	edge(header, body)
	edge(header, exit)
	edge(body, header)

	sub8 := f.NewValue(ir.OpSub, esp, konst(f, entry, 8))
	entry.Append(sub8)
	entry.Append(f.NewValue(ir.OpJmp))

	phi := f.NewValue(ir.OpPhi, sub8, nil)
	header.AddPhi(phi)
	cond := konst(f, header, 1)
	header.Append(f.NewValue(ir.OpBr, cond))

	// body: push 4, pop 4 — net zero.
	down := f.NewValue(ir.OpSub, phi, konst(f, body, 4))
	body.Append(down)
	up := f.NewValue(ir.OpAdd, down, konst(f, body, 4))
	body.Append(up)
	phi.Args[1] = up
	body.Append(f.NewValue(ir.OpJmp))

	back := f.NewValue(ir.OpAdd, phi, konst(f, exit, 8))
	exit.Append(back)
	exit.Append(f.NewValue(ir.OpRet, back))

	facts := Heights(f)
	want := map[*ir.Value]int32{esp: 0, sub8: -8, phi: -8, down: -12, up: -8, back: 0}
	for v, c := range want {
		got, ok := facts.Known[v]
		if !ok {
			t.Errorf("v%d: height unknown, want %d", v.ID, c)
		} else if got != c {
			t.Errorf("v%d: height %d, want %d", v.ID, got, c)
		}
	}
}

// boundedCounter is a forward interval problem over a loop whose counter is
// capped: H has a short back edge (A: identity) and a long one (B -> C,
// where C computes min(y+3, 9)). The two path lengths make the worklist
// dequeue H twice per round, and the short-path dequeue never changes H's
// state. Counting those no-change dequeues toward the widening trigger (as
// the engine once did) widens the provably-bounded [0,9] to [0,+inf].
type ivState struct {
	set bool
	iv  Interval
}

func boundedCounter(capped bool, cBlock *ir.Block) Problem[ivState] {
	return Problem[ivState]{
		Forward:  true,
		Boundary: func(*ir.Func) ivState { return ivState{set: true, iv: Const(0)} },
		Bottom:   func() ivState { return ivState{} },
		Join: func(dst, src ivState) (ivState, bool) {
			if !src.set {
				return dst, false
			}
			if !dst.set {
				return src, true
			}
			u := dst.iv.Union(src.iv)
			return ivState{set: true, iv: u}, u != dst.iv
		},
		Copy: func(_, src ivState) ivState { return src },
		Transfer: func(b *ir.Block, in ivState) ivState {
			if b != cBlock || !in.set {
				return in
			}
			next := in.iv.Add(Const(3))
			if capped && next.Hi > 9 {
				next.Hi = 9
			}
			return ivState{set: true, iv: next}
		},
		Widen: func(prev, next ivState) ivState {
			if !prev.set || !next.set {
				return next
			}
			return ivState{set: true, iv: next.iv.WidenFrom(prev.iv)}
		},
	}
}

// loopTwoBackEdges builds entry -> H; H -> {A, B, exit}; A -> H; B -> C -> H.
func loopTwoBackEdges(f *ir.Func, entry *ir.Block) (h, c *ir.Block) {
	h = f.NewBlock(0)
	a := f.NewBlock(0)
	b := f.NewBlock(0)
	c = f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, h)
	edge(h, a)
	edge(h, b)
	edge(h, exit)
	edge(a, h)
	edge(b, c)
	edge(c, h)
	return h, c
}

func TestWideningDelayKeepsBoundedLoop(t *testing.T) {
	_, f, entry := mkFunc("f")
	h, c := loopTwoBackEdges(f, entry)

	res := Solve(f, boundedCounter(true, c))
	got := res.In[h]
	if !got.set || got.iv != Span(0, 9) {
		t.Errorf("capped counter at loop head = %v, want [0,9]; "+
			"no-change dequeues must not trigger widening", got.iv)
	}
}

func TestWideningStillTerminatesDivergingLoop(t *testing.T) {
	_, f, entry := mkFunc("f")
	h, c := loopTwoBackEdges(f, entry)

	res := Solve(f, boundedCounter(false, c))
	got := res.In[h]
	if !got.set || got.iv.Hi < PosInf {
		t.Errorf("diverging counter at loop head = %v, want widened Hi=+inf", got.iv)
	}
}
