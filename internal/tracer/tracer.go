// Package tracer performs dynamic control-flow recovery: it runs a binary in
// the emulator under a set of user-provided inputs, recording every executed
// instruction and every control transfer. This is the reproduction's
// analogue of BinRec's S2E-based binary tracer, including the merge of
// per-input CFGs into one trace (Figure 4's "Merge CFGs" step).
package tracer

import (
	"fmt"
	"slices"
	"sort"

	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/par"
)

// Per-instruction flags of a Trace.
const (
	ran   uint8 = 1 << iota // the instruction executed under some input
	fell                    // a JCC fell through to the next instruction
	taken                   // a JCC branched to its target
)

// Trace is the merged dynamic CFG information for one binary, read through
// its methods. It holds one byte of flags per instruction and, for the
// indirect sites (CALLR, JMPR), a sorted list of observed targets. Every
// other transfer is read from the instruction once it ran: a JMP or a
// direct CALL reaches its immediate (an external when that is an external
// address), a RET returns, and a JCC's flags say which of its two outcomes
// were seen.
type Trace struct {
	Img *obj.Image // the traced binary
	// Inputs counts the merged runs.
	Inputs int

	flags []uint8    // per instruction
	ind   [][]uint32 // per instruction: an indirect site's targets, ascending
}

// New returns an empty trace for an image.
func New(img *obj.Image) *Trace {
	return &Trace{Img: img, flags: make([]uint8, len(img.Code)), ind: make([][]uint32, len(img.Code))}
}

// Ran reports whether the instruction at pc executed under any input.
func (t *Trace) Ran(pc uint32) bool {
	return isa.IsCodeAddr(pc, len(t.flags)) && t.flags[obj.IndexOf(pc)]&ran != 0
}

// Covered returns the number of instructions that executed.
func (t *Trace) Covered() int {
	n := 0
	for _, f := range t.flags {
		if f&ran != 0 {
			n++
		}
	}
	return n
}

// outcomes returns the opcode at pc and every destination its transfers
// were seen to reach, ascending, so external addresses come last. An
// indirect site also reports the targets AddIndirect gave it.
func (t *Trace) outcomes(pc uint32) (op isa.Op, to []uint32) {
	if !isa.IsCodeAddr(pc, len(t.flags)) {
		return op, nil
	}
	i := obj.IndexOf(pc)
	in, f := &t.Img.Code[i], t.flags[i]
	switch {
	case in.Op == isa.JMPR || in.Op == isa.CALLR:
		to = append(to, t.ind[i]...)
	case f&ran == 0:
	case in.Op == isa.JMP || in.Op == isa.CALL:
		to = []uint32{uint32(in.Imm)}
	case in.Op == isa.JCC:
		if f&fell != 0 {
			to = append(to, pc+isa.InstrSize)
		}
		if f&taken != 0 {
			to = append(to, uint32(in.Imm))
		}
		slices.Sort(to)
		to = slices.Compact(to)
	}
	return in.Op, to
}

// extStart returns the index of the first external address in an
// ascending destination list.
func extStart(to []uint32) int {
	return sort.Search(len(to), func(i int) bool { return isa.IsExtAddr(to[i]) })
}

// Targets returns the observed targets of the control transfer at pc, in
// ascending order: a call's callees in lifted code (ExtCall reports its
// externals), a jump's destinations, a conditional branch's taken target
// and fall-through. It is empty for an instruction that is not a call or
// a jump or that did not run, except at an indirect site AddIndirect
// widened.
func (t *Trace) Targets(pc uint32) []uint32 {
	op, to := t.outcomes(pc)
	if op == isa.CALL || op == isa.CALLR {
		to = to[:extStart(to)]
	}
	return to
}

// ExtCall returns the names of the external functions the call at pc
// reached, in address order: at most one for a direct CALL, any number for
// a CALLR.
func (t *Trace) ExtCall(pc uint32) []string {
	op, to := t.outcomes(pc)
	if op != isa.CALL && op != isa.CALLR {
		return nil
	}
	var names []string
	for _, a := range to[extStart(to):] {
		name, _ := t.Img.ExtName(a)
		names = append(names, name)
	}
	return names
}

// AddIndirect adds to to the targets of the indirect site (CALLR or JMPR)
// at pc and reports whether it was new. The tracer records every observed
// indirect transfer this way; cold-code recovery widens an indirect call's
// dispatch set with it.
func (t *Trace) AddIndirect(pc, to uint32) bool {
	s := &t.ind[obj.IndexOf(pc)]
	j, found := slices.BinarySearch(*s, to)
	if !found {
		*s = slices.Insert(*s, j, to)
	}
	return !found
}

// RemoveIndirect removes to from the targets of the indirect site at pc,
// undoing an AddIndirect that reported true.
func (t *Trace) RemoveIndirect(pc, to uint32) {
	s := &t.ind[obj.IndexOf(pc)]
	if j, found := slices.BinarySearch(*s, to); found {
		*s = slices.Delete(*s, j, j+1)
	}
}

// Run executes the binary under one input and records the observed control
// flow into the trace; the program's output is discarded. A failed run
// leaves part of its observations in t, so its caller must discard the
// trace (RunAll traces every input into a trace of its own).
func (t *Trace) Run(input machine.Input) (machine.Result, error) {
	m, err := machine.New(t.Img, input, nil)
	if err != nil {
		return machine.Result{}, err
	}
	// Each reported block covers the instructions [start, end], and a block
	// that ended at a control transfer carries it in tr; the machine
	// reports only blocks it executed, so both ends are in range. Only a
	// branch's direction and an indirect site's target are not implied by
	// the instruction that ran.
	flags, code := t.flags, t.Img.Code
	m.BlockHook = func(start, end uint32, tr machine.Transfer, term bool) {
		e := obj.IndexOf(end)
		for i := obj.IndexOf(start); i <= e; i++ {
			flags[i] |= ran
		}
		switch {
		case !term || tr.Kind == machine.TransferRet:
		case tr.Kind == machine.TransferBranch && tr.Taken:
			flags[e] |= taken
		case tr.Kind == machine.TransferBranch:
			flags[e] |= fell
		case code[e].Op == isa.JMPR || code[e].Op == isa.CALLR:
			t.AddIndirect(tr.From, tr.To)
		}
	}
	if err := m.Run(); err != nil {
		return machine.Result{}, fmt.Errorf("tracer: %w", err)
	}
	t.Inputs++
	return machine.Result{ExitCode: m.ExitCode(), Cycles: m.TotalCycles(), Steps: m.Steps}, nil
}

// RunAll traces every input into its own Trace over a pool of jobs workers
// (inline when jobs is 1; values < 1 mean one per CPU) and merges the
// traces into t in input order (incremental lifting's "provide more inputs
// until coverage suffices"). Because a Trace is a collection of sets and
// Merge is a union, the result is identical for every worker count. On
// error t is unchanged.
func (t *Trace) RunAll(inputs []machine.Input, jobs int) error {
	subs, err := par.Map(jobs, len(inputs), func(i int) (*Trace, error) {
		sub := New(t.Img)
		if _, err := sub.Run(inputs[i]); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		return sub, nil
	})
	if err != nil {
		return err
	}
	for _, sub := range subs {
		t.Merge(sub)
	}
	return nil
}

// Merge folds another trace for the same image into t.
func (t *Trace) Merge(o *Trace) {
	for i, f := range o.flags {
		t.flags[i] |= f
		for _, to := range o.ind[i] {
			t.AddIndirect(obj.AddrOf(i), to)
		}
	}
	t.Inputs += o.Inputs
}

// Block is a recovered basic block: a maximal run of executed instructions
// with a single entry at Start.
type Block struct {
	Start uint32 // address of the block's first instruction
	// End is the address of the last instruction in the block.
	End uint32
	// Succs are intra-procedural successor block starts (branch, jump,
	// fall-through and call-return edges). Call and tail-call targets are
	// not included.
	Succs []uint32
	// CallSite is true when the block ends in a call (direct, indirect or
	// external).
	CallSite bool
	// IsRet is true when the block ends in ret.
	IsRet bool
}

// CFG is the block-level dynamic control-flow graph.
type CFG struct {
	Trace  *Trace            // the trace the graph was built from
	Blocks map[uint32]*Block // keyed by start address
	// TailJumps marks jump sites that were classified as tail calls by
	// function recovery (filled in by funcrec, consumed by the lifter).
	TailJumps map[uint32]bool
}

// BuildCFG derives basic blocks from the merged trace, scanning the
// instructions in address order.
func (t *Trace) BuildCFG() *CFG {
	img := t.Img
	// A block starts at the entry, at every observed transfer target and
	// after every executed transfer (the fall-through or return site), as
	// far as those instructions ran.
	leader := make([]bool, len(img.Code))
	mark := func(a uint32) {
		if t.Ran(a) {
			leader[obj.IndexOf(a)] = true
		}
	}
	mark(img.Entry)
	for i, in := range img.Code {
		if pc := obj.AddrOf(i); in.Op.IsControl() && in.Op != isa.HALT && t.Ran(pc) {
			for _, to := range t.Targets(pc) {
				mark(to)
			}
			mark(pc + isa.InstrSize)
		}
	}

	cfg := &CFG{Trace: t, Blocks: make(map[uint32]*Block), TailJumps: make(map[uint32]bool)}
	for i, isLeader := range leader {
		if !isLeader {
			continue
		}
		start := obj.AddrOf(i)
		blk := &Block{Start: start}
		pc := start
		// Every instruction walked ran, so it is in the code section.
		for {
			in := &img.Code[obj.IndexOf(pc)]
			next := pc + isa.InstrSize
			if in.Op.IsControl() {
				blk.End = pc
				switch in.Op {
				case isa.JMP, isa.JMPR, isa.JCC:
					blk.Succs = t.Targets(pc)
				case isa.CALL, isa.CALLR:
					blk.CallSite = true
					if t.Ran(next) {
						blk.Succs = []uint32{next}
					}
				case isa.RET:
					blk.IsRet = true
				}
				break
			}
			if !t.Ran(next) || leader[obj.IndexOf(next)] {
				blk.End = pc
				if t.Ran(next) {
					blk.Succs = []uint32{next}
				}
				break
			}
			pc = next
		}
		cfg.Blocks[start] = blk
	}
	return cfg
}
