// Package funcrec recovers function boundaries from a dynamic CFG, following
// §5.1 of the paper (a Nucleus-style analysis adapted to traced control
// flow): call targets become function entries, jumps to entries are tail
// calls, bodies are computed by intra-procedural reachability, blocks shared
// by several functions are split into their own single-entry functions, and
// functions reachable only through one tail call merge into their caller
// (which falls out naturally: such blocks are reachable from a single entry
// and are never split).
package funcrec

import (
	"fmt"
	"sort"

	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// Function is one recovered function.
type Function struct {
	Name  string // recovered (or symbol-table) name
	Entry uint32 // entry address
	// Blocks lists the block start addresses belonging to the body,
	// sorted, entry first.
	Blocks []uint32
}

// Result is the outcome of function recovery.
type Result struct {
	Funcs []*Function // recovered functions, in entry-address order
	// ByEntry indexes functions by entry address.
	ByEntry map[uint32]*Function
	// Owner maps each block start to its (single) owning function.
	Owner map[uint32]*Function
	// TailCalls marks jump-site addresses reclassified as tail calls,
	// with their observed targets (function entries).
	TailCalls map[uint32]bool
}

// Recover computes function boundaries over the CFG. It also fills in
// cfg.TailJumps for the lifter.
func Recover(cfg *tracer.CFG) (*Result, error) {
	t := cfg.Trace
	entries := map[uint32]bool{t.Img.Entry: true}
	for i := range t.Img.Code {
		if op := t.Img.Code[i].Op; op == isa.CALL || op == isa.CALLR {
			for _, to := range t.Targets(obj.AddrOf(i)) {
				entries[to] = true
			}
		}
	}

	// Fixpoint: classify tail calls against the current entry set, compute
	// bodies, split shared blocks into new entries.
	tail := map[uint32]bool{}
	var bodies map[uint32]map[uint32]bool
	for iter := 0; ; iter++ {
		if iter > len(cfg.Blocks)+8 {
			return nil, fmt.Errorf("funcrec: split fixpoint did not converge")
		}
		// A jump edge whose target is an entry of a *different* function is
		// a tail call. Self-loops back to the owning entry stay.
		tail = map[uint32]bool{}
		for _, blk := range cfg.Blocks {
			in, err := t.Img.InstrAt(blk.End)
			if err != nil {
				return nil, err
			}
			if in.Op != isa.JMP && in.Op != isa.JMPR {
				continue
			}
			anyEntry := false
			for _, s := range blk.Succs {
				if entries[s] {
					anyEntry = true
				}
			}
			if anyEntry {
				tail[blk.End] = true
			}
		}
		// Bodies: reachability from each entry, not crossing into other
		// entries and not following tail-call edges.
		bodies = make(map[uint32]map[uint32]bool, len(entries))
		for e := range entries {
			if _, ok := cfg.Blocks[e]; !ok {
				continue
			}
			body := map[uint32]bool{}
			stack := []uint32{e}
			for len(stack) > 0 {
				a := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[a] {
					continue
				}
				if a != e && entries[a] {
					continue // another function starts here
				}
				body[a] = true
				blk := cfg.Blocks[a]
				if blk == nil {
					continue
				}
				if tail[blk.End] {
					continue // tail-call edges leave the function
				}
				for _, s := range blk.Succs {
					stack = append(stack, s)
				}
			}
			bodies[e] = body
		}
		// Membership counts.
		count := map[uint32]int{}
		for _, body := range bodies {
			for a := range body {
				count[a]++
			}
		}
		// Predecessor map over intra-procedural edges.
		preds := map[uint32][]uint32{}
		for _, blk := range cfg.Blocks {
			if tail[blk.End] {
				continue
			}
			for _, s := range blk.Succs {
				preds[s] = append(preds[s], blk.Start)
			}
		}
		// Split rule: a block contained in more functions than any of its
		// predecessors becomes an entry.
		changed := false
		for a, c := range count {
			if c < 2 || entries[a] {
				continue
			}
			maxPred := 0
			for _, p := range preds[a] {
				if count[p] > maxPred {
					maxPred = count[p]
				}
			}
			if c > maxPred {
				entries[a] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	res := &Result{
		ByEntry:   make(map[uint32]*Function),
		Owner:     make(map[uint32]*Function),
		TailCalls: tail,
	}
	var entryList []uint32
	for e := range entries {
		if _, ok := cfg.Blocks[e]; ok {
			entryList = append(entryList, e)
		}
	}
	sort.Slice(entryList, func(i, j int) bool { return entryList[i] < entryList[j] })
	for _, e := range entryList {
		fn := &Function{Entry: e, Name: nameFor(t, e)}
		var blocks []uint32
		for a := range bodies[e] {
			blocks = append(blocks, a)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		// Entry first.
		for i, a := range blocks {
			if a == e && i != 0 {
				copy(blocks[1:i+1], blocks[:i])
				blocks[0] = e
				break
			}
		}
		fn.Blocks = blocks
		res.Funcs = append(res.Funcs, fn)
		res.ByEntry[e] = fn
		for _, a := range blocks {
			res.Owner[a] = fn
		}
	}
	for site := range tail {
		cfg.TailJumps[site] = true
	}
	if err := res.crossCheck(t); err != nil {
		return nil, err
	}
	return res, nil
}

func nameFor(t *tracer.Trace, entry uint32) string {
	if n, ok := t.Img.SymName(entry); ok {
		return n
	}
	return fmt.Sprintf("fn_%x", entry)
}

// crossCheck validates recovered entries against the symbol table when one
// is available, as the paper does ("we verified our results by
// cross-referencing all detected functions with the binary's symbol table
// ... and did not encounter any false positives"). A recovered entry that
// falls strictly inside a symbol's presumed body is fine (tail-call split);
// a symbol whose address was executed but not recovered as an entry is
// reported.
func (r *Result) crossCheck(t *tracer.Trace) error {
	for _, s := range t.Img.Syms {
		if !t.Ran(s.Addr) {
			continue
		}
		if _, ok := r.ByEntry[s.Addr]; ok {
			continue
		}
		// The symbol executed but is not an entry: acceptable only if it
		// was merged into a caller (single tail call); it must then be
		// owned by some function.
		if r.Owner[s.Addr] == nil {
			return fmt.Errorf("funcrec: executed symbol %s@0x%x recovered as neither entry nor body",
				s.Name, s.Addr)
		}
	}
	return nil
}
