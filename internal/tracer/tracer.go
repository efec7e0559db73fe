// Package tracer performs dynamic control-flow recovery: it runs a binary in
// the emulator under a set of user-provided inputs, recording every executed
// instruction and every control transfer. This is the reproduction's
// analogue of BinRec's S2E-based binary tracer, including the merge of
// per-input CFGs into one trace (Figure 4's "Merge CFGs" step).
package tracer

import (
	"fmt"
	"io"
	"sort"

	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/par"
)

// Trace is the merged dynamic CFG information for one binary.
type Trace struct {
	Img *obj.Image // the traced binary
	// Executed marks every instruction address that ran under any input.
	Executed map[uint32]bool
	// CallTargets maps a call-site address to the set of observed callee
	// entry addresses (lifted code only; external calls are not included).
	CallTargets map[uint32]map[uint32]bool
	// ExtCalls maps a call-site address to the external function name.
	ExtCalls map[uint32]string
	// JumpTargets maps each jump/branch site to its observed targets
	// (needed for indirect jumps; direct branches record their one or two
	// outcomes).
	JumpTargets map[uint32]map[uint32]bool
	// RetSites marks addresses of executed ret instructions.
	RetSites map[uint32]bool
	// Inputs counts the merged runs.
	Inputs int
}

// New returns an empty trace for an image.
func New(img *obj.Image) *Trace {
	return &Trace{
		Img:         img,
		Executed:    make(map[uint32]bool),
		CallTargets: make(map[uint32]map[uint32]bool),
		ExtCalls:    make(map[uint32]string),
		JumpTargets: make(map[uint32]map[uint32]bool),
		RetSites:    make(map[uint32]bool),
	}
}

func addTarget(m map[uint32]map[uint32]bool, from, to uint32) {
	s := m[from]
	if s == nil {
		s = make(map[uint32]bool)
		m[from] = s
	}
	s[to] = true
}

// Run executes the binary under one input and merges the observed control
// flow into the trace. Program output is written to out (may be nil).
func (t *Trace) Run(input machine.Input, out io.Writer) (machine.Result, error) {
	m, err := machine.New(t.Img, input, out)
	if err != nil {
		return machine.Result{}, err
	}
	// Coverage goes to a dense bitmap indexed by instruction number and
	// folds into Executed once the run ends. The machine rejects a
	// misaligned or out-of-image pc before it calls InstrHook, so the
	// index is always in range.
	cov := make([]bool, len(t.Img.Code))
	m.InstrHook = func(pc uint32) { cov[(pc-isa.CodeBase)/isa.InstrSize] = true }
	m.Hook = t.addTransfer
	err = m.Run()
	for i, hit := range cov {
		if hit {
			t.Executed[obj.AddrOf(i)] = true
		}
	}
	if err != nil {
		return machine.Result{}, fmt.Errorf("tracer: %w", err)
	}
	t.Inputs++
	return machine.Result{ExitCode: m.ExitCode(), Cycles: m.TotalCycles(), Steps: m.Steps}, nil
}

// addTransfer folds one observed control transfer into the trace; it is
// Run's machine hook.
func (t *Trace) addTransfer(tr machine.Transfer) {
	switch tr.Kind {
	case machine.TransferCall:
		addTarget(t.CallTargets, tr.From, tr.To)
	case machine.TransferExt:
		name, _ := t.Img.ExtName(tr.To)
		t.ExtCalls[tr.From] = name
	case machine.TransferJump:
		addTarget(t.JumpTargets, tr.From, tr.To)
	case machine.TransferBranch:
		addTarget(t.JumpTargets, tr.From, tr.To)
	case machine.TransferRet:
		t.RetSites[tr.From] = true
	}
}

// RunAll merges traces for several inputs (incremental lifting's "provide
// more inputs until coverage suffices").
func (t *Trace) RunAll(inputs []machine.Input, out io.Writer) error {
	return t.RunAllJobs(inputs, out, 1)
}

// RunAllJobs is RunAll over a bounded worker pool: every input is traced
// into its own fresh Trace and the per-input traces are merged into t in
// input order. Because a Trace is a collection of sets and Merge is a
// union, the merged result is identical for every worker count; the
// per-input program output is discarded (out only receives output under
// jobs == 1, where inputs run in order).
func (t *Trace) RunAllJobs(inputs []machine.Input, out io.Writer, jobs int) error {
	if par.N(jobs) == 1 || len(inputs) == 1 {
		for i := range inputs {
			if _, err := t.Run(inputs[i], out); err != nil {
				return fmt.Errorf("input %d: %w", i, err)
			}
		}
		return nil
	}
	subs, err := par.Map(jobs, len(inputs), func(i int) (*Trace, error) {
		sub := New(t.Img)
		if _, err := sub.Run(inputs[i], io.Discard); err != nil {
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
	for a := range o.Executed {
		t.Executed[a] = true
	}
	for from, s := range o.CallTargets {
		for to := range s {
			addTarget(t.CallTargets, from, to)
		}
	}
	for from, name := range o.ExtCalls {
		t.ExtCalls[from] = name
	}
	for from, s := range o.JumpTargets {
		for to := range s {
			addTarget(t.JumpTargets, from, to)
		}
	}
	for a := range o.RetSites {
		t.RetSites[a] = true
	}
	t.Inputs += o.Inputs
}

// Targets returns the sorted observed targets of a transfer site.
func Targets(m map[uint32]map[uint32]bool, from uint32) []uint32 {
	s := m[from]
	out := make([]uint32, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// BuildCFG derives basic blocks from the merged trace.
func (t *Trace) BuildCFG() (*CFG, error) {
	img := t.Img
	leaders := map[uint32]bool{img.Entry: true}
	mark := func(a uint32) {
		if t.Executed[a] {
			leaders[a] = true
		}
	}
	for from, s := range t.JumpTargets {
		for to := range s {
			mark(to)
		}
		mark(from + isa.InstrSize) // instruction after a branch
	}
	for from, s := range t.CallTargets {
		for to := range s {
			mark(to)
		}
		mark(from + isa.InstrSize) // return site
	}
	for from := range t.ExtCalls {
		mark(from + isa.InstrSize)
	}
	for from := range t.RetSites {
		mark(from + isa.InstrSize)
	}

	cfg := &CFG{Trace: t, Blocks: make(map[uint32]*Block), TailJumps: make(map[uint32]bool)}
	for start := range leaders {
		if !t.Executed[start] {
			continue
		}
		blk := &Block{Start: start}
		pc := start
		for {
			in, err := img.InstrAt(pc)
			if err != nil {
				return nil, fmt.Errorf("tracer: block at 0x%x: %w", start, err)
			}
			next := pc + isa.InstrSize
			if in.Op.IsControl() {
				blk.End = pc
				switch in.Op {
				case isa.JMP, isa.JMPR:
					blk.Succs = Targets(t.JumpTargets, pc)
				case isa.JCC:
					blk.Succs = Targets(t.JumpTargets, pc)
				case isa.CALL, isa.CALLR:
					blk.CallSite = true
					if t.Executed[next] {
						blk.Succs = []uint32{next}
					}
				case isa.RET:
					blk.IsRet = true
				case isa.HALT:
				}
				break
			}
			if leaders[next] || !t.Executed[next] {
				blk.End = pc
				if t.Executed[next] && leaders[next] {
					blk.Succs = []uint32{next}
				}
				break
			}
			pc = next
		}
		cfg.Blocks[start] = blk
	}
	return cfg, nil
}

// BlockStarts returns the sorted block start addresses.
func (c *CFG) BlockStarts() []uint32 {
	out := make([]uint32, 0, len(c.Blocks))
	for a := range c.Blocks {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
