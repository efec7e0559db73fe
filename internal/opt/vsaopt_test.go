package opt_test

import (
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/vsa"
)

// vsaOracle is the factory the real pipeline consumers use.
func vsaOracle(f *ir.Func) opt.AliasOracle { return vsa.NewOracle(f) }

func valloca(f *ir.Func, b *ir.Block, name string, size uint32, off int32) *ir.Value {
	a := f.NewValue(ir.OpAlloca)
	a.AllocSize = size
	a.Name = name
	a.Const = off
	b.Append(a)
	return a
}

func vedge(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func store4(f *ir.Func, b *ir.Block, addr, val *ir.Value) *ir.Value {
	s := f.NewValue(ir.OpStore, addr, val)
	s.Size = 4
	b.Append(s)
	return s
}

func load4(f *ir.Func, b *ir.Block, addr *ir.Value) *ir.Value {
	l := f.NewValue(ir.OpLoad, addr)
	l.Size = 4
	b.Append(l)
	return l
}

// pointerTable builds a table slot holding the address of a that only
// the oracle lets the optimizer untangle: between filling tab[0] and
// reading it back, a byte store lands at tab+4+(c&1). Syntactically that
// store may hit any byte of tab, so it kills the forwarded entry, the
// load stays, and a's address escapes through it. The oracle proves the
// store byte-disjoint from tab[0], so the load forwards to a itself, the
// table store dies, and a becomes promotable.
//
//	entry: tab[0] = &a; tab[4+(c&1)] = 1 (byte); q = tab[0]; *q = 7
//	       return *a
func pointerTable() (*ir.Module, *ir.Func) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	entry := f.NewBlock(0)
	m.Entry = f

	c := f.NewParam(isa.EAX, "c")
	a := valloca(f, entry, "a", 4, -12)
	tab := valloca(f, entry, "tab", 8, -8)
	store4(f, entry, tab, a)
	bit := f.NewValue(ir.OpAnd, c, konst(f, entry, 1))
	entry.Append(bit)
	off := f.NewValue(ir.OpAdd, bit, konst(f, entry, 4))
	entry.Append(off)
	hi := f.NewValue(ir.OpAdd, tab, off)
	entry.Append(hi)
	st := f.NewValue(ir.OpStore, hi, konst(f, entry, 1))
	st.Size = 1
	entry.Append(st)
	q := load4(f, entry, tab)
	store4(f, entry, q, konst(f, entry, 7))
	x := load4(f, entry, a)
	entry.Append(f.NewValue(ir.OpRet, x))
	return m, f
}

func countPromoted(p *layout.Program) int {
	n := 0
	for _, name := range p.FuncNames() {
		n += len(p.Frame(name).Vars)
	}
	return n
}

func countLoads(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpLoad {
				n++
			}
		}
	}
	return n
}

// TestPipelineOraclePromotesMore is the acceptance gate for the VSA
// integration: on the pointer-table pattern the oracle-equipped pipeline
// must promote strictly more stack slots than the baseline, whose
// syntactic alias rules cannot separate the table's two halves.
func TestPipelineOraclePromotesMore(t *testing.T) {
	mBase, fBase := pointerTable()
	base := opt.PipelineWith(mBase, opt.PipelineOpts{})
	mOrc, fOrc := pointerTable()
	withOrc := opt.PipelineWith(mOrc, opt.PipelineOpts{Oracle: vsaOracle})

	nb, no := countPromoted(base), countPromoted(withOrc)
	if no <= nb {
		t.Errorf("oracle promoted %d slots, baseline %d; want strictly more", no, nb)
	}
	if nb != 0 {
		t.Errorf("baseline unexpectedly promoted %d slots", nb)
	}
	// With the oracle every load is forwarded away; the baseline keeps
	// the table load.
	if n := countLoads(fOrc); n != 0 {
		t.Errorf("oracle pipeline left %d loads", n)
	}
	if n := countLoads(fBase); n == 0 {
		t.Error("baseline unexpectedly removed every load")
	}
}

// TestMemOptOracleSurvivesIndirectStore: with the oracle, a forwarded
// value survives a store through a phi-carried pointer proven to target a
// different slot; without it, the syntactically-unknown store kills the
// entry because the slot's address escaped.
func TestMemOptOracleSurvivesIndirectStore(t *testing.T) {
	build := func() (*ir.Func, *ir.Value, *ir.Value) {
		m := ir.NewModule("t")
		f := m.NewFunc("f", 0x1000)
		f.NumRet = 1
		entry := f.NewBlock(0)
		m.Entry = f
		b2 := f.NewBlock(0)
		vedge(entry, b2)
		a := valloca(f, entry, "a", 4, -12)
		bb := valloca(f, entry, "b", 4, -8)
		p := valloca(f, entry, "p", 4, -4)
		store4(f, entry, p, a) // a escapes
		entry.Append(f.NewValue(ir.OpJmp))
		// q arrives through a phi: invisible to the syntactic resolver.
		q := f.NewValue(ir.OpPhi, bb)
		b2.AddPhi(q)
		five := konst(f, b2, 5)
		store4(f, b2, a, five)
		store4(f, b2, q, konst(f, b2, 9))
		x := load4(f, b2, a)
		ret := f.NewValue(ir.OpRet, x)
		b2.Append(ret)
		return f, five, ret
	}

	f, _, ret := build()
	opt.MemOpt(f)
	if ret.Args[0].Op != ir.OpLoad {
		t.Errorf("baseline MemOpt forwarded across an unknown store: ret %v", ret.Args[0])
	}
	f2, five2, ret2 := build()
	opt.MemOptWith(f2, vsaOracle(f2))
	if ret2.Args[0] != five2 {
		t.Errorf("oracle MemOpt did not forward: ret %v, want the stored 5", ret2.Args[0])
	}
}
