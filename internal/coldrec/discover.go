package coldrec

import (
	"fmt"
	"sort"

	"wytiwyg/internal/extdb"
	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// scanner holds the shared state of one discovery run.
type scanner struct {
	img *obj.Image
	t   *tracer.Trace
	rec *funcrec.Result
	n   int // instruction count of the code section
}

// scanSeeds collects the candidate entry set from statically visible
// evidence: direct call targets anywhere in the code section, code addresses
// materialized as immediates (taken function addresses: the only way this ISA
// can form an indirect-call target), and symbol-table entries. Synthetic
// "__"-prefixed symbols (codegen's stub markers) are skipped so re-lifting a
// recompiled binary does not chase its own stubs.
func (d *scanner) scanSeeds() (seeds, taken map[uint32]bool) {
	seeds = make(map[uint32]bool)
	taken = make(map[uint32]bool)
	for i := range d.img.Code {
		in := &d.img.Code[i]
		switch in.Op {
		case isa.CALL:
			if tgt := uint32(in.Imm); isa.IsCodeAddr(tgt, d.n) {
				seeds[tgt] = true
			}
		case isa.MOVI, isa.PUSHI, isa.STOREI:
			if tgt := uint32(in.Imm); isa.IsCodeAddr(tgt, d.n) {
				seeds[tgt] = true
				taken[tgt] = true
			}
		}
	}
	for _, s := range d.img.Syms {
		if len(s.Name) >= 2 && s.Name[:2] == "__" {
			continue
		}
		if isa.IsCodeAddr(s.Addr, d.n) {
			seeds[s.Addr] = true
		}
	}
	return seeds, taken
}

// instrFact is the per-instruction record of the plausibility walk.
type instrFact struct {
	in *isa.Instr
	// succs are the intra-procedural successor addresses (reachability
	// edges; tail-call targets excluded).
	succs []uint32
	// branchTargets are explicit jump/branch/table targets (block leaders).
	branchTargets []uint32
	// tailTarget is the tail-called entry when tail is set.
	tailTarget uint32
	// callTarget is the direct internal call target when hasCall is set.
	callTarget uint32
	tail       bool
	hasCall    bool
	indirect   bool
	ret        bool
	callSite   bool
}

// build runs the Datalog-Disassembly-style plausibility pass for one
// candidate entry: recursive descent over intra-procedural successors with
// per-instruction validation. It returns the candidate, or a non-empty
// rejection reason.
func (d *scanner) build(entry uint32, all map[uint32]bool) (*Candidate, string) {
	c := &Candidate{
		Entry:  entry,
		Name:   nameAt(d.img, entry),
		Blocks: make(map[uint32]*tracer.Block),
	}
	facts := make(map[uint32]*instrFact)
	work := []uint32{entry}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if facts[pc] != nil {
			continue
		}
		if len(facts) >= MaxBody {
			return nil, fmt.Sprintf("body exceeds %d instructions", MaxBody)
		}
		if !isa.IsCodeAddr(pc, d.n) {
			return nil, fmt.Sprintf("control reaches 0x%x outside the code section", pc)
		}
		if d.t.Ran(pc) {
			return nil, fmt.Sprintf("overlaps traced code at 0x%x", pc)
		}
		f, reason := d.classify(pc, entry, all)
		if reason != "" {
			return nil, reason
		}
		facts[pc] = f
		work = append(work, f.succs...)
	}
	c.Instrs = len(facts)

	// Sorted walk over the facts keeps every derived list deterministic.
	pcs := make([]uint32, 0, len(facts))
	for pc := range facts {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	callSet := make(map[uint32]bool)
	for _, pc := range pcs {
		f := facts[pc]
		if f.tail {
			c.TailSites = append(c.TailSites, pc)
			callSet[f.tailTarget] = true
		}
		if f.hasCall {
			callSet[f.callTarget] = true
		}
		if f.indirect {
			c.CallRSites = append(c.CallRSites, pc)
		}
	}
	for tgt := range callSet {
		c.calls = append(c.calls, tgt)
	}
	sort.Slice(c.calls, func(i, j int) bool { return c.calls[i] < c.calls[j] })

	buildBlocks(c, entry, pcs, facts)
	if reason := checkFlags(c, facts); reason != "" {
		return nil, reason
	}
	c.LiveIn = liveness(c, facts)
	return c, ""
}

// classify validates one instruction and computes its control-flow facts.
// entry is the candidate's own entry; all is the full (traced + seed)
// function-entry set fixing the boundary classification.
func (d *scanner) classify(pc, entry uint32, all map[uint32]bool) (*instrFact, string) {
	in := &d.img.Code[obj.IndexOf(pc)]
	f := &instrFact{in: in}
	next := pc + isa.InstrSize
	fallsTo := func() string {
		if !isa.IsCodeAddr(next, d.n) {
			return fmt.Sprintf("falls off the end of the code section at 0x%x", pc)
		}
		if all[next] && next != entry {
			return fmt.Sprintf("falls through into function entry 0x%x", next)
		}
		f.succs = append(f.succs, next)
		return ""
	}
	switch in.Op {
	case isa.SYS:
		// The lifter has no model for a syscall in recompiled code (traced
		// programs only reach one through the runtime veneer).
		return nil, fmt.Sprintf("syscall at 0x%x", pc)
	case isa.JMP:
		tgt := uint32(in.Imm)
		if !isa.IsCodeAddr(tgt, d.n) {
			return nil, fmt.Sprintf("jump to 0x%x outside the code section", tgt)
		}
		if all[tgt] {
			// Mirror funcrec: a jump to a function entry is a tail call
			// (including self tail calls).
			f.tail, f.tailTarget = true, tgt
		} else {
			f.succs = append(f.succs, tgt)
			f.branchTargets = append(f.branchTargets, tgt)
		}
	case isa.JCC:
		tgt := uint32(in.Imm)
		if !isa.IsCodeAddr(tgt, d.n) {
			return nil, fmt.Sprintf("branch to 0x%x outside the code section", tgt)
		}
		if all[tgt] && tgt != entry {
			return nil, fmt.Sprintf("conditional branch into function entry 0x%x", tgt)
		}
		f.succs = append(f.succs, tgt)
		f.branchTargets = append(f.branchTargets, tgt)
		if reason := fallsTo(); reason != "" {
			return nil, reason
		}
	case isa.JMPR:
		targets, reason := d.resolveTable(pc, entry)
		if reason != "" {
			return nil, reason
		}
		for _, tgt := range targets {
			if all[tgt] {
				return nil, fmt.Sprintf("jump-table target 0x%x is a function entry", tgt)
			}
		}
		f.succs = targets
		f.branchTargets = targets
	case isa.CALL:
		tgt := uint32(in.Imm)
		if isa.IsExtAddr(tgt) {
			name, ok := d.img.ExtName(tgt)
			if !ok {
				return nil, fmt.Sprintf("call to unresolved external 0x%x", tgt)
			}
			sig, ok := extdb.Lookup(name)
			if !ok {
				return nil, fmt.Sprintf("call to unknown external %q", name)
			}
			if sig.Variadic {
				// Only tracing can recover per-site variadic argument
				// counts; a static guess would miscompile.
				return nil, fmt.Sprintf("variadic external call to %q at 0x%x", name, pc)
			}
		} else {
			if !isa.IsCodeAddr(tgt, d.n) {
				return nil, fmt.Sprintf("call to 0x%x outside the code section", tgt)
			}
			f.hasCall, f.callTarget = true, tgt
		}
		f.callSite = true
		if reason := fallsTo(); reason != "" {
			return nil, reason
		}
	case isa.CALLR:
		f.callSite = true
		f.indirect = true
		if reason := fallsTo(); reason != "" {
			return nil, reason
		}
	case isa.RET:
		f.ret = true
	case isa.HALT:
	default:
		if reason := fallsTo(); reason != "" {
			return nil, reason
		}
	}
	return f, ""
}

// buildBlocks derives basic blocks over the validated body, mirroring
// tracer.BuildCFG's leader rules so merged cold blocks are shaped exactly
// like traced ones. Tail-call targets appear in Succs (as BuildCFG records
// them) but never created the reachability edge.
func buildBlocks(c *Candidate, entry uint32, pcs []uint32, facts map[uint32]*instrFact) {
	leaders := map[uint32]bool{entry: true}
	for _, pc := range pcs {
		f := facts[pc]
		for _, tgt := range f.branchTargets {
			leaders[tgt] = true
		}
		if f.in.Op.IsControl() && facts[pc+isa.InstrSize] != nil {
			leaders[pc+isa.InstrSize] = true
		}
	}
	for start := range leaders {
		if facts[start] == nil {
			continue
		}
		blk := &tracer.Block{Start: start}
		pc := start
		for {
			f := facts[pc]
			next := pc + isa.InstrSize
			if f.in.Op.IsControl() {
				blk.End = pc
				switch {
				case f.tail:
					blk.Succs = []uint32{f.tailTarget}
				case f.in.Op == isa.JMP, f.in.Op == isa.JMPR, f.in.Op == isa.JCC:
					blk.Succs = sortedUnique(f.succs)
				case f.callSite:
					blk.CallSite = true
					blk.Succs = []uint32{next}
				case f.ret:
					blk.IsRet = true
				}
				break
			}
			if leaders[next] {
				blk.End = pc
				blk.Succs = []uint32{next}
				break
			}
			pc = next
		}
		c.Blocks[start] = blk
	}
	for start := range c.Blocks {
		c.Starts = append(c.Starts, start)
	}
	sort.Slice(c.Starts, func(i, j int) bool { return c.Starts[i] < c.Starts[j] })
}

func sortedUnique(in []uint32) []uint32 {
	out := append([]uint32(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}

// checkFlags enforces the lifter's per-block flags discipline: every
// conditional consumer (JCC, SET) must see a CMP/CMPI/TEST earlier in its
// own block.
func checkFlags(c *Candidate, facts map[uint32]*instrFact) string {
	for _, start := range c.Starts {
		b := c.Blocks[start]
		set := false
		for pc := b.Start; pc <= b.End; pc += isa.InstrSize {
			switch in := facts[pc].in; in.Op {
			case isa.CMP, isa.CMPI, isa.TEST:
				set = true
			case isa.JCC, isa.SET:
				if !set {
					return fmt.Sprintf("condition at 0x%x consumed without flags set in its block", pc)
				}
			}
		}
	}
	return ""
}

// liveness computes the may-read-before-write register set at the entry — the
// static argument estimate. Calls conservatively read every register (the
// callee's demands are unknown here); RET reads every register so that
// registers the body merely preserves stay classified as pass-through
// arguments rather than being severed from the caller (regsave would replace
// a dropped parameter with zero, which would break caller-observed
// preservation). External calls read ESP (arguments travel on the stack) and
// define EAX; HALT reads EAX (the exit code).
func liveness(c *Candidate, facts map[uint32]*instrFact) [isa.NumRegs]bool {
	type regSet = uint8 // bitmask over the 8 registers
	const allRegs = regSet(0xFF)

	transfer := func(f *instrFact, live regSet) regSet {
		in := f.in
		switch {
		case f.tail, in.Op == isa.CALLR, f.hasCall:
			return allRegs
		case in.Op == isa.CALL: // external (internal is hasCall)
			live &^= 1 << isa.EAX // the call defines the return register
			live |= 1 << isa.ESP
			return live
		case in.Op == isa.RET:
			return allRegs
		case in.Op == isa.HALT:
			return 1 << isa.EAX
		}
		if def := in.Def(); def.Valid() {
			live &^= 1 << def
		}
		for _, r := range in.Uses() {
			live |= 1 << r
		}
		return live
	}

	liveIn := make(map[uint32]regSet, len(c.Starts))
	for changed := true; changed; {
		changed = false
		// Reverse address order converges fast on mostly-forward CFGs.
		for i := len(c.Starts) - 1; i >= 0; i-- {
			b := c.Blocks[c.Starts[i]]
			var out regSet
			f := facts[b.End]
			if !f.tail && !f.ret && f.in.Op != isa.HALT {
				for _, s := range b.Succs {
					out |= liveIn[s]
				}
			}
			for pc := b.End; ; pc -= isa.InstrSize {
				out = transfer(facts[pc], out)
				if pc == b.Start {
					break
				}
			}
			if out != liveIn[b.Start] {
				liveIn[b.Start] = out
				changed = true
			}
		}
	}
	var out [isa.NumRegs]bool
	entryLive := liveIn[c.Entry]
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		out[r] = entryLive&(1<<r) != 0
	}
	return out
}
