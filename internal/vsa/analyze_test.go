package vsa

import (
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
)

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

func alloca(f *ir.Func, b *ir.Block, name string, size uint32, off int32) *ir.Value {
	a := f.NewValue(ir.OpAlloca)
	a.AllocSize = size
	a.Name = name
	a.Const = off
	b.Append(a)
	return a
}

// TestOracleResolvesStoredAddress pins the pointer-table pattern the
// syntactic escape analysis gives up on: &a stored into slot p, reloaded,
// and dereferenced. VSA must prove the reloaded pointer is exactly a+0,
// that the dereferenced store writes {42} into a, and that the reloaded
// pointer cannot alias p itself.
func TestOracleResolvesStoredAddress(t *testing.T) {
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", 16, -24)
	p := alloca(f, b, "p", 4, -4)
	st1 := f.NewValue(ir.OpStore, p, a) // *p = &a
	b.Append(st1)
	q := f.NewValue(ir.OpLoad, p)
	b.Append(q)
	st2 := f.NewValue(ir.OpStore, q, konst(f, b, 42)) // *q = 42
	b.Append(st2)
	x := f.NewValue(ir.OpLoad, a)
	b.Append(x)
	b.Append(f.NewValue(ir.OpRet, x))

	o := NewOracle(f)
	base, offs, ok := o.Result().ValueSetOf(q).FramePart()
	if off, exact := offs.Exact(); !ok || base != a || !exact || off != 0 {
		t.Fatalf("frame part of q = %v,%v,%v; want a,{0},true", base, offs, ok)
	}
	if !o.MustNotAlias(q, 4, p, 4) {
		t.Error("q and p should be proven disjoint (distinct stack objects)")
	}
	if o.MustNotAlias(q, 4, a, 4) {
		t.Error("q and a alias (same cell) but were separated")
	}
	if num, ok := o.Result().ValueSetOf(x).NumPart(); !ok {
		t.Errorf("load through resolved chain = %v, want {42}", o.Result().ValueSetOf(x))
	} else if c, exact := num.Exact(); !exact || c != 42 {
		t.Errorf("forwarded value = %v, want exactly 42", num)
	}
}

// TestOracleLoopStride verifies that a strided loop index separates
// interleaved field accesses: store a[8i] and a[8i+4] never collide even
// though the index is unbounded after widening.
func TestOracleLoopStride(t *testing.T) {
	_, f, entry := mkFunc("f")
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, header)
	edge(header, body)
	edge(header, exit)
	edge(body, header)

	a := alloca(f, entry, "a", 64, -64)
	i0 := konst(f, entry, 0)
	entry.Append(f.NewValue(ir.OpJmp))

	phi := f.NewValue(ir.OpPhi, i0, nil)
	header.AddPhi(phi)
	cond := konst(f, header, 1)
	header.Append(f.NewValue(ir.OpBr, cond))

	addr0 := f.NewValue(ir.OpAdd, a, phi)
	body.Append(addr0)
	body.Append(f.NewValue(ir.OpStore, addr0, konst(f, body, 1)))
	addr1 := f.NewValue(ir.OpAdd, addr0, konst(f, body, 4))
	body.Append(addr1)
	body.Append(f.NewValue(ir.OpStore, addr1, konst(f, body, 2)))
	inext := f.NewValue(ir.OpAdd, phi, konst(f, body, 8))
	body.Append(inext)
	phi.Args[1] = inext
	body.Append(f.NewValue(ir.OpJmp))

	exit.Append(f.NewValue(ir.OpRet, konst(f, exit, 0)))

	o := NewOracle(f)
	base, offs, ok := o.Result().ValueSetOf(addr0).FramePart()
	if !ok || base != a {
		t.Fatalf("addr0 not resolved to frame of a: %v", o.Result().ValueSetOf(addr0))
	}
	if offs.Stride != 8 || offs.Lo != 0 {
		t.Errorf("addr0 offsets = %v, want stride 8 anchored at 0", offs)
	}
	if !o.MustNotAlias(addr0, 4, addr1, 4) {
		t.Error("interleaved stride-8 fields should be proven disjoint")
	}
	if o.MustNotAlias(addr0, 8, addr1, 4) {
		t.Error("an 8-byte access spans both fields; separation is unsound")
	}
}

// TestCallClobbersEscapedOnly: a call must invalidate the tracked value of
// an escaped slot but keep a private one.
func TestCallClobbersEscapedOnly(t *testing.T) {
	m, f, b := mkFunc("f")
	callee := m.NewFunc("g", 0x2000)
	callee.NumRet = 1
	cb := callee.NewBlock(0)
	cb.Append(callee.NewValue(ir.OpRet, konst(callee, cb, 0)))

	priv := alloca(f, b, "priv", 4, -8)
	esc := alloca(f, b, "esc", 4, -4)
	b.Append(f.NewValue(ir.OpStore, priv, konst(f, b, 7)))
	b.Append(f.NewValue(ir.OpStore, esc, konst(f, b, 9)))
	call := f.NewValue(ir.OpCall, esc) // &esc passed to the callee
	call.Callee = callee
	call.NumRet = 1
	b.Append(call)
	lp := f.NewValue(ir.OpLoad, priv)
	b.Append(lp)
	le := f.NewValue(ir.OpLoad, esc)
	b.Append(le)
	b.Append(f.NewValue(ir.OpRet, lp))

	fr := Analyze(f)
	if num, ok := fr.ValueSetOf(lp).NumPart(); !ok {
		t.Errorf("private slot lost across call: %v", fr.ValueSetOf(lp))
	} else if c, exact := num.Exact(); !exact || c != 7 {
		t.Errorf("private slot = %v, want {7}", num)
	}
	if !fr.ValueSetOf(le).IsTop() {
		t.Errorf("escaped slot survived a call: %v", fr.ValueSetOf(le))
	}
}

// TestVerifyFlagsCrossSlotAndOutOfFrame exercises the layout verifier's
// two findings.
func TestVerifyFlagsCrossSlotAndOutOfFrame(t *testing.T) {
	_, f, b := mkFunc("f")
	x := alloca(f, b, "x", 4, -8)
	alloca(f, b, "y", 4, -4)
	// May cross from x into y: offsets [0,4] of a 4-byte slot.
	raw := f.NewValue(ir.OpLoad, x)
	b.Append(raw)
	idx := f.NewValue(ir.OpAnd, raw, konst(f, b, 4))
	b.Append(idx)
	cross := f.NewValue(ir.OpAdd, x, idx)
	b.Append(cross)
	b.Append(f.NewValue(ir.OpStore, cross, konst(f, b, 1)))
	// Proven outside the whole frame [-8, 0).
	wild := f.NewValue(ir.OpAdd, x, konst(f, b, 100))
	b.Append(wild)
	b.Append(f.NewValue(ir.OpStore, wild, konst(f, b, 2)))
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	var rep analysis.Report
	st := Check(Analyze(f), &rep)
	if st.CrossSlot != 1 || st.OutOfFrame != 1 {
		t.Fatalf("stats = %+v, want CrossSlot 1, OutOfFrame 1\n%s", st, rep.String())
	}
	if rep.Errors() != 1 || rep.Count(analysis.Warn) != 1 {
		t.Errorf("report = %d errors %d warns, want 1/1\n%s",
			rep.Errors(), rep.Count(analysis.Warn), rep.String())
	}
	// A clean in-bounds function reports nothing.
	_, g, gb := mkFunc("g")
	ga := alloca(g, gb, "a", 8, -8)
	gb.Append(g.NewValue(ir.OpStore, ga, konst(g, gb, 1)))
	gb.Append(g.NewValue(ir.OpRet, konst(g, gb, 0)))
	var clean analysis.Report
	if st := Check(Analyze(g), &clean); st.CrossSlot+st.OutOfFrame != 0 || len(clean.Diags) != 0 {
		t.Errorf("clean function flagged: %+v\n%s", st, clean.String())
	}
}
