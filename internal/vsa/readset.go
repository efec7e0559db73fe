package vsa

import (
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// readSet is a compact record of every part of a function Analyze reads:
// the block order, each block's edges, phis and instructions, and each of
// those values' opcode, operand pointers and payload fields. The analysis
// is intraprocedural (it never follows Callee or Targets) and keyed by
// value identity, so a function that still matches its record has the
// same fixpoint. Passes edit the IR in place (v.Args[i] = x, b.Insts =
// ...), which no mutation counter would see; the record compares the
// fields themselves.
type readSet struct {
	blocks []blockRead
	edges  []*ir.Block // per block: Preds, then Succs
	values []valueRead // per block: Phis, then Insts
	args   []*ir.Value // per value: Args
}

// blockRead is one block and the lengths of its lists.
type blockRead struct {
	b                         *ir.Block
	phis, insts, preds, succs int32
}

// valueRead is one value and the fields the analysis interprets.
type valueRead struct {
	v                *ir.Value
	op               ir.Op
	size             uint8
	signed           bool
	cond             isa.Cond
	nargs            int32
	c                int32
	allocSize, align uint32
	sym              string
}

func readValue(v *ir.Value) valueRead {
	return valueRead{
		v: v, op: v.Op, size: v.Size, signed: v.Signed, cond: v.Cond,
		nargs: int32(len(v.Args)), c: v.Const,
		allocSize: v.AllocSize, align: v.Align, sym: v.Sym,
	}
}

// record captures f's read set.
func record(f *ir.Func) readSet {
	nedges, nvals, nargs := 0, 0, 0
	for _, b := range f.Blocks {
		nedges += len(b.Preds) + len(b.Succs)
		nvals += len(b.Phis) + len(b.Insts)
		for _, v := range b.Phis {
			nargs += len(v.Args)
		}
		for _, v := range b.Insts {
			nargs += len(v.Args)
		}
	}
	r := readSet{
		blocks: make([]blockRead, 0, len(f.Blocks)),
		edges:  make([]*ir.Block, 0, nedges),
		values: make([]valueRead, 0, nvals),
		args:   make([]*ir.Value, 0, nargs),
	}
	for _, b := range f.Blocks {
		r.blocks = append(r.blocks, blockRead{b: b,
			phis: int32(len(b.Phis)), insts: int32(len(b.Insts)),
			preds: int32(len(b.Preds)), succs: int32(len(b.Succs))})
		r.edges = append(r.edges, b.Preds...)
		r.edges = append(r.edges, b.Succs...)
		for _, v := range b.Phis {
			r.values = append(r.values, readValue(v))
			r.args = append(r.args, v.Args...)
		}
		for _, v := range b.Insts {
			r.values = append(r.values, readValue(v))
			r.args = append(r.args, v.Args...)
		}
	}
	return r
}

// matches reports whether f is still exactly what r recorded. It walks f
// once and does not allocate.
func (r *readSet) matches(f *ir.Func) bool {
	if len(f.Blocks) != len(r.blocks) {
		return false
	}
	edges, values, args := r.edges, r.values, r.args
	sameEdges := func(bs []*ir.Block) bool {
		for i, b := range bs {
			if edges[i] != b {
				return false
			}
		}
		edges = edges[len(bs):]
		return true
	}
	sameValues := func(vs []*ir.Value) bool {
		for i, v := range vs {
			if values[i] != readValue(v) {
				return false
			}
			for j, a := range v.Args {
				if args[j] != a {
					return false
				}
			}
			args = args[len(v.Args):]
		}
		values = values[len(vs):]
		return true
	}
	for i, b := range f.Blocks {
		br := &r.blocks[i]
		if br.b != b || int(br.phis) != len(b.Phis) || int(br.insts) != len(b.Insts) ||
			int(br.preds) != len(b.Preds) || int(br.succs) != len(b.Succs) {
			return false
		}
		if !sameEdges(b.Preds) || !sameEdges(b.Succs) ||
			!sameValues(b.Phis) || !sameValues(b.Insts) {
			return false
		}
	}
	return true
}

// Current reports whether the analyzed function is still exactly the
// function Analyze read: same blocks in the same order, same edges, and
// every phi and instruction with the same opcode, operands and payload.
// A current result is the fixpoint a fresh Analyze would compute, so it
// may be handed out again instead; a stale one must not. The check walks
// the function once and does not allocate.
func (fr *FuncResult) Current() bool { return fr.read.matches(fr.fn) }
