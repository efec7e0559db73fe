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
	// mutated in place; the merged state is returned. src is only read:
	// the result must not share storage with it.
	Join func(dst, src S) (S, bool)

	// Transfer computes a block's out-state (forward) or in-state
	// (backward) from the given boundary state. The argument is a private
	// copy the transfer function may mutate freely (and return). Solve
	// runs it again whenever a successor's join needs the result, so it
	// must be deterministic.
	Transfer func(b *ir.Block, in S) S

	// Copy makes dst an independent copy of src and returns it, reusing
	// dst's storage where it can; dst is either the zero S (allocate) or
	// a state the engine has discarded. The engine recycles the states a
	// fixpoint iteration throws away through Copy, so once the first
	// visits have discarded some, later visits reuse their storage
	// instead of allocating.
	Copy func(dst, src S) S

	// Widen, when non-nil, is applied to a block's boundary state once more
	// than WidenAfter joins have actually enlarged it: it must return a
	// state at least as large as both arguments, jumping far enough up the
	// lattice that the chain terminates (typically to ±infinity bounds).
	// next may be mutated in place and returned; prev is only read.
	Widen func(prev, next S) S

	// WidenAfter is the number of state-changing joins a block absorbs
	// plainly before widening kicks in (default 4). Only joins that grow
	// the state count: re-dequeues that change nothing — common when
	// several paths of different lengths re-enqueue the same loop head —
	// don't burn the precision budget, so short loops converge on exact
	// bounds instead of being widened by queue-scheduling noise.
	WidenAfter int
}

// Solve runs the worklist algorithm to a fixpoint over f's reachable
// blocks and returns, for each of them, the state its transfer reads: the
// state at block entry for forward problems and at block exit for
// backward ones; a consumer that needs the other side of a block replays
// the block's transfer from that state. No two returned states share
// storage, so a consumer may mutate (replay into) the one it reads.
// Blocks are processed in reverse post order (post order for backward
// problems) so that acyclic regions converge in one pass; loops iterate
// until their states stabilize or widening forces termination.
func Solve[S any](f *ir.Func, p Problem[S]) map[*ir.Block]S {
	order := ir.RPO(f)
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
	// the positions whose transferred states feed block i, sinks[i] the
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

	// state[i] is the state flowing into block i's transfer (valid once
	// visited[i]). A block's transferred state is not kept, which halves
	// the live states: a sink's visit replays the transfer from state[i],
	// and that gives exactly the state the last visit of i produced.
	state := make([]S, len(order))
	visited := make([]bool, len(order))
	// grows[i] counts joins that enlarged block i's boundary state; it is
	// the widening clock (see Problem.WidenAfter).
	grows := make([]int, len(order))

	// free holds discarded states whose storage Copy may overwrite; no
	// live state (state or the visit's temporaries) is ever in it.
	var free []S
	spare := func() S {
		if n := len(free); n > 0 {
			s := free[n-1]
			free = free[:n-1]
			return s
		}
		var zero S
		return zero
	}
	bottom := p.Bottom()
	// bnd is the boundary state, built on first use and only ever read.
	var bnd S
	haveBnd := false

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

		// next joins the states flowing into block i. The first one
		// stands in for its join with Bottom, Join's identity.
		var next S
		have := false
		if isBoundary(i) {
			if !haveBnd {
				bnd, haveBnd = p.Boundary(f), true
			}
			next, have = p.Copy(spare(), bnd), true
		}
		for _, s := range sources[i] {
			if !visited[s] {
				continue
			}
			out := p.Transfer(order[s], p.Copy(spare(), state[s]))
			if !have {
				next, have = out, true
				continue
			}
			next, _ = p.Join(next, out)
			free = append(free, out)
		}
		if !have {
			next = p.Copy(spare(), bottom)
		}
		if visited[i] {
			if p.Widen == nil || grows[i] < widenAfter {
				// No widening on this join: merge into the state in
				// place, which a join that changes nothing leaves as it
				// was.
				merged, changed := p.Join(state[i], next)
				state[i] = merged
				free = append(free, next)
				if !changed {
					continue
				}
				grows[i]++
			} else {
				merged, changed := p.Join(p.Copy(spare(), state[i]), next)
				if !changed {
					free = append(free, merged, next)
					continue
				}
				grows[i]++
				widened := p.Widen(state[i], merged)
				free = append(free, next, state[i])
				state[i] = widened
			}
		} else {
			visited[i] = true
			state[i] = next
		}
		for _, s := range sinks[i] {
			push(s)
		}
	}

	res := make(map[*ir.Block]S, len(order))
	for i, b := range order {
		if visited[i] {
			res[b] = state[i]
		}
	}
	return res
}
