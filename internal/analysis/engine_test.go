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

// Solve keeps one state per block: for a forward problem the state at
// block entry, from which a consumer replays the block's exit.
func TestSolveForwardDiamond(t *testing.T) {
	_, f, entry := mkFunc("f")
	thenB, elseB, exit := diamond(f, entry)

	p := pathSets(true)
	res := Solve(f, p)
	if len(res) != 4 {
		t.Fatalf("fixpoint has %d states, want one per block (4)", len(res))
	}
	in := res[exit]
	for _, b := range []*ir.Block{entry, thenB, elseB} {
		if !in[b.ID] {
			t.Errorf("exit in-state missing block %d", b.ID)
		}
	}
	if in[exit.ID] {
		t.Error("exit in-state contains exit itself")
	}
	if len(res[entry]) != 0 {
		t.Errorf("entry in-state should be boundary-empty, got %v", res[entry])
	}
	if out := p.Transfer(exit, in); !out[exit.ID] {
		t.Error("exit out-state replayed from its in-state missing exit")
	}
}

// For a backward problem the one state per block is the state at block
// exit, the input of the backward transfer.
func TestSolveBackwardDiamond(t *testing.T) {
	_, f, entry := mkFunc("f")
	thenB, elseB, exit := diamond(f, entry)

	p := pathSets(false)
	res := Solve(f, p)
	if len(res) != 4 {
		t.Fatalf("fixpoint has %d states, want one per block (4)", len(res))
	}
	// The entry's exit state is what flows back from every block below it.
	out := res[entry]
	for _, b := range []*ir.Block{thenB, elseB, exit} {
		if !out[b.ID] {
			t.Errorf("entry exit-state missing block %d", b.ID)
		}
	}
	if out[entry.ID] {
		t.Error("entry exit-state contains entry itself")
	}
	if len(res[exit]) != 0 {
		t.Errorf("exit boundary state should be empty, got %v", res[exit])
	}
	if in := p.Transfer(entry, out); !in[entry.ID] {
		t.Error("entry in-state replayed from its exit-state missing entry")
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
	if !res[header][body.ID] {
		t.Error("loop header in-state never absorbed the back edge")
	}
	if !res[exit][body.ID] {
		t.Error("exit in-state missing loop body")
	}
}

func TestSolveSkipsUnreachable(t *testing.T) {
	_, f, entry := mkFunc("f")
	dead := f.NewBlock(0) // no preds, not reachable
	_ = entry
	res := Solve(f, pathSets(true))
	if _, ok := res[dead]; ok {
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
	set    bool
	lo, hi int64
}

// unbounded is the widened upper bound.
const unbounded = int64(1) << 40

func boundedCounter(capped bool, cBlock *ir.Block) Problem[ivState] {
	return Problem[ivState]{
		Forward:  true,
		Boundary: func(*ir.Func) ivState { return ivState{set: true} },
		Bottom:   func() ivState { return ivState{} },
		Join: func(dst, src ivState) (ivState, bool) {
			if !src.set {
				return dst, false
			}
			if !dst.set {
				return src, true
			}
			u := ivState{set: true, lo: min(dst.lo, src.lo), hi: max(dst.hi, src.hi)}
			return u, u != dst
		},
		Copy: func(_, src ivState) ivState { return src },
		Transfer: func(b *ir.Block, in ivState) ivState {
			if b != cBlock || !in.set {
				return in
			}
			next := ivState{set: true, lo: in.lo + 3, hi: min(in.hi+3, unbounded)}
			if capped && next.hi > 9 {
				next.hi = 9
			}
			return next
		},
		Widen: func(prev, next ivState) ivState {
			if !prev.set || !next.set {
				return next
			}
			if next.hi > prev.hi {
				next.hi = unbounded
			}
			return next
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
	got := res[h]
	if want := (ivState{set: true, lo: 0, hi: 9}); got != want {
		t.Errorf("capped counter at loop head = %+v, want [0,9]; "+
			"no-change dequeues must not trigger widening", got)
	}
}

func TestWideningStillTerminatesDivergingLoop(t *testing.T) {
	_, f, entry := mkFunc("f")
	h, c := loopTwoBackEdges(f, entry)

	res := Solve(f, boundedCounter(false, c))
	got := res[h]
	if !got.set || got.hi < unbounded {
		t.Errorf("diverging counter at loop head = %+v, want widened hi=+inf", got)
	}
}
