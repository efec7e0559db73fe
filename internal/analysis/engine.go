package analysis

import "wytiwyg/internal/ir"

// Problem defines one monotone dataflow problem over a function's CFG. The
// state type S is an element of a join semilattice: Join is the merge
// operator (union for may-analyses, intersection for must-analyses) and
// Bottom its identity element (the optimistic initial state). The engine
// drives a worklist to a fixpoint; for lattices of unbounded height an
// optional widening operator accelerates convergence at loop heads.
type Problem[S any] struct {
	// Forward selects the direction: facts flow along CFG edges (block
	// in-state = join of predecessor out-states) or against them.
	Forward bool

	// Boundary produces the in-state of the entry block (forward) or the
	// out-state of every exit block (backward).
	Boundary func(f *ir.Func) S

	// Bottom produces the identity element of Join: the state every other
	// block boundary starts from.
	Bottom func() S

	// Join merges src into dst and reports whether dst changed. dst may be
	// mutated in place; the merged state is returned.
	Join func(dst, src S) (S, bool)

	// Transfer computes a block's out-state (forward) or in-state
	// (backward) from the given boundary state. The argument is a private
	// copy the transfer function may mutate freely.
	Transfer func(b *ir.Block, in S) S

	// Clone deep-copies a state.
	Clone func(S) S

	// Widen, when non-nil, is applied to a block's boundary state once more
	// than WidenAfter joins have actually enlarged it: it must return a
	// state at least as large as both arguments, jumping far enough up the
	// lattice that the chain terminates (typically to ±infinity bounds).
	Widen func(prev, next S) S

	// WidenAfter is the number of state-changing joins a block absorbs
	// plainly before widening kicks in (default 4). Only joins that grow
	// the state count: re-dequeues that change nothing — common when
	// several paths of different lengths re-enqueue the same loop head —
	// don't burn the precision budget, so short loops converge on exact
	// bounds instead of being widened by queue-scheduling noise.
	WidenAfter int
}

// Result carries the fixpoint: the state at each block's entry and exit (in
// execution order, regardless of analysis direction).
type Result[S any] struct {
	In  map[*ir.Block]S // state at block entry
	Out map[*ir.Block]S // state at block exit
}

// Solve runs the worklist algorithm to a fixpoint over f's reachable
// blocks. Blocks are processed in reverse post order (post order for
// backward problems) so that acyclic regions converge in one pass; loops
// iterate until their states stabilize or widening forces termination.
func Solve[S any](f *ir.Func, p Problem[S]) Result[S] {
	order := rpo(f)
	if !p.Forward {
		rev := make([]*ir.Block, len(order))
		for i, b := range order {
			rev[len(order)-1-i] = b
		}
		order = rev
	}
	widenAfter := p.WidenAfter
	if widenAfter <= 0 {
		widenAfter = 4
	}

	// All per-block state is indexed by position in order. sources[i] are
	// the positions whose post-transfer states feed block i, sinks[i] the
	// positions to reenqueue when its state changes; edges to unreachable
	// blocks are dropped (those blocks never produce a state).
	idx := make(map[*ir.Block]int, len(order))
	for i, b := range order {
		idx[b] = i
	}
	sources := make([][]int, len(order))
	sinks := make([][]int, len(order))
	positions := func(bs []*ir.Block) []int {
		out := make([]int, 0, len(bs))
		for _, b := range bs {
			if j, ok := idx[b]; ok {
				out = append(out, j)
			}
		}
		return out
	}
	boundary := -1
	for i, b := range order {
		if p.Forward {
			sources[i], sinks[i] = positions(b.Preds), positions(b.Succs)
			if b == f.Entry() {
				boundary = i
			}
		} else {
			sources[i], sinks[i] = positions(b.Succs), positions(b.Preds)
		}
	}
	isBoundary := func(i int) bool {
		if p.Forward {
			return i == boundary
		}
		return len(order[i].Succs) == 0
	}

	// pre[i] is the state flowing into the transfer, post[i] the state it
	// produced (valid once visited[i]). They map onto Result.In/Out
	// according to direction.
	pre := make([]S, len(order))
	post := make([]S, len(order))
	visited := make([]bool, len(order))
	// grows[i] counts joins that enlarged block i's boundary state; it is
	// the widening clock (see Problem.WidenAfter).
	grows := make([]int, len(order))

	inQueue := make([]bool, len(order))
	queue := make([]int, 0, len(order))
	push := func(i int) {
		if inQueue[i] {
			return
		}
		inQueue[i] = true
		queue = append(queue, i)
	}
	for i := range order {
		push(i)
	}

	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		b := order[i]

		next := p.Bottom()
		if isBoundary(i) {
			next, _ = p.Join(next, p.Boundary(f))
		}
		for _, s := range sources[i] {
			if visited[s] {
				next, _ = p.Join(next, post[s])
			}
		}
		if visited[i] {
			merged, changed := p.Join(p.Clone(pre[i]), next)
			if !changed {
				continue
			}
			grows[i]++
			if p.Widen != nil && grows[i] > widenAfter {
				merged = p.Widen(pre[i], merged)
			}
			next = merged
		}
		visited[i] = true
		pre[i] = next
		post[i] = p.Transfer(b, p.Clone(next))
		for _, s := range sinks[i] {
			push(s)
		}
	}

	res := Result[S]{In: make(map[*ir.Block]S, len(order)), Out: make(map[*ir.Block]S, len(order))}
	for i, b := range order {
		if visited[i] {
			res.In[b], res.Out[b] = pre[i], post[i]
		}
	}
	if !p.Forward {
		res.In, res.Out = res.Out, res.In
	}
	return res
}
