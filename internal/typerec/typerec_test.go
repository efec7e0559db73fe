package typerec

import (
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/vsa"
)

func mkFunc(m *ir.Module, name string) (*ir.Func, *ir.Block) {
	f := m.NewFunc(name, 0x1000+uint32(len(m.Funcs))*0x100)
	f.NumRet = 1
	b := f.NewBlock(0)
	if m.Entry == nil {
		m.Entry = f
	}
	return f, b
}

func konst(f *ir.Func, b *ir.Block, c int32) *ir.Value {
	k := f.NewValue(ir.OpConst)
	k.Const = c
	b.Append(k)
	return k
}

func alloca(f *ir.Func, b *ir.Block, name string, size uint32, off int32) *ir.Value {
	a := f.NewValue(ir.OpAlloca)
	a.AllocSize = size
	a.Name = name
	a.Const = off
	b.Append(a)
	return a
}

func store(f *ir.Func, b *ir.Block, addr, val *ir.Value, size uint8) {
	s := f.NewValue(ir.OpStore, addr, val)
	s.Size = size
	b.Append(s)
}

func load(f *ir.Func, b *ir.Block, addr *ir.Value, size uint8) *ir.Value {
	l := f.NewValue(ir.OpLoad, addr)
	l.Size = size
	b.Append(l)
	return l
}

func addK(f *ir.Func, b *ir.Block, base *ir.Value, k int32) *ir.Value {
	v := f.NewValue(ir.OpAdd, base, konst(f, b, k))
	b.Append(v)
	return v
}

func edge(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// TestResolveScalarAndStruct: a 4-byte slot accessed whole is int32; an
// 8-byte slot accessed at 0 and 4 is a two-field struct; a slot holding
// another slot's address is a pointer with its pointee reported.
func TestResolveScalarAndStruct(t *testing.T) {
	m := ir.NewModule("t")
	f, b := mkFunc(m, "f")
	x := alloca(f, b, "x", 4, -4)
	s := alloca(f, b, "s", 8, -12)
	p := alloca(f, b, "p", 4, -16)
	store(f, b, x, konst(f, b, 1), 4)
	store(f, b, s, konst(f, b, 2), 4)
	store(f, b, addK(f, b, s, 4), konst(f, b, 3), 4)
	store(f, b, p, x, 4) // p = &x
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	r := AnalyzeFunc(vsa.Analyze(f))
	if got := r.Slots[x].String(); got != "int32" {
		t.Errorf("x: %s, want int32", got)
	}
	if got := r.Slots[s].String(); got != "struct{0:int32,4:int32}" {
		t.Errorf("s: %s, want struct{0:int32,4:int32}", got)
	}
	if got := r.Slots[p].String(); got != "ptr(int32)" {
		t.Errorf("p: %s, want ptr(int32)", got)
	}
	if len(r.Conflicts) != 0 {
		t.Errorf("unexpected conflicts: %v", r.Conflicts)
	}
}

// TestResolveArrayFromStride: a strided loop over a 40-byte slot types
// it as an int32 array; an interleaved two-field stream types an array
// of structs.
func TestResolveArrayFromStride(t *testing.T) {
	m := ir.NewModule("t")
	f, entry := mkFunc(m, "f")
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	edge(entry, header)
	edge(header, body)
	edge(header, exit)
	edge(body, header)

	arr := alloca(f, entry, "arr", 40, -40)
	pairs := alloca(f, entry, "pairs", 24, -64)
	i0 := konst(f, entry, 0)
	entry.Append(f.NewValue(ir.OpJmp))

	phi := f.NewValue(ir.OpPhi, i0, nil)
	header.AddPhi(phi)
	header.Append(f.NewValue(ir.OpBr, konst(f, header, 1)))

	a0 := f.NewValue(ir.OpAdd, arr, phi)
	body.Append(a0)
	store(f, body, a0, konst(f, body, 1), 4)
	inext := f.NewValue(ir.OpAdd, phi, konst(f, body, 4))
	body.Append(inext)
	phi.Args[1] = inext

	j := f.NewValue(ir.OpMul, phi, konst(f, body, 2))
	body.Append(j)
	p0 := f.NewValue(ir.OpAdd, pairs, j)
	body.Append(p0)
	store(f, body, p0, konst(f, body, 5), 4)
	p1 := addK(f, body, p0, 4)
	store(f, body, p1, konst(f, body, 6), 4)
	body.Append(f.NewValue(ir.OpJmp))

	exit.Append(f.NewValue(ir.OpRet, konst(f, exit, 0)))

	r := AnalyzeFunc(vsa.Analyze(f))
	if got := r.Slots[arr].String(); got != "array(int32,10)" {
		t.Errorf("arr: %s, want array(int32,10)", got)
	}
	if got := r.Slots[pairs].String(); got != "array(struct{0:int32,4:int32},3)" {
		t.Errorf("pairs: %s, want array(struct{0:int32,4:int32},3)", got)
	}
}

// TestResolveConflict: the same offset accessed at two widths is
// irreconcilable — the slot degrades to conflict and the event is
// recorded for the lint finding.
func TestResolveConflict(t *testing.T) {
	m := ir.NewModule("t")
	f, b := mkFunc(m, "f")
	x := alloca(f, b, "x", 4, -4)
	store(f, b, x, konst(f, b, 1), 4)
	store(f, b, x, konst(f, b, 2), 1)
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	r := AnalyzeFunc(vsa.Analyze(f))
	if got := r.Slots[x].Kind0(); got != layout.TConflict {
		t.Errorf("x kind: %v, want conflict", got)
	}
	if len(r.Conflicts) != 1 {
		t.Fatalf("conflicts: %d, want 1", len(r.Conflicts))
	}
}

// TestResolveUndercommit: a lone narrow access to a wide slot must not
// produce a claim.
func TestResolveUndercommit(t *testing.T) {
	m := ir.NewModule("t")
	f, b := mkFunc(m, "f")
	buf := alloca(f, b, "buf", 64, -64)
	store(f, b, buf, konst(f, b, 1), 1)
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	r := AnalyzeFunc(vsa.Analyze(f))
	if got := r.Slots[buf].Kind0(); got != layout.TTop {
		t.Errorf("buf kind: %v, want top", got)
	}
}

// TestUnifyRefinesPointee: a slot with no local accesses adopts the
// scalar type witnessed by a callee that dereferences its address —
// the argument/return binding at work.
func TestUnifyRefinesPointee(t *testing.T) {
	m := ir.NewModule("t")
	g, gb := mkFunc(m, "g")
	gp := g.NewValue(ir.OpParam)
	gp.Idx = 0
	g.Params = append(g.Params, gp)
	gl := load(g, gb, gp, 4) // *p as int32
	gb.Append(g.NewValue(ir.OpRet, gl))

	f, fb := mkFunc(m, "f")
	x := alloca(f, fb, "x", 4, -4)
	call := f.NewValue(ir.OpCall, x) // g(&x)
	call.Callee = g
	call.NumRet = 1
	fb.Append(call)
	fb.Append(f.NewValue(ir.OpRet, konst(f, fb, 0)))

	rg := AnalyzeFunc(vsa.Analyze(g))
	rf := AnalyzeFunc(vsa.Analyze(f))
	if got := rf.Slots[x].Kind0(); got != layout.TTop {
		t.Fatalf("pre-unify x kind: %v, want top", got)
	}
	Unify(m, []*FuncResult{rg, rf})
	if got := rf.Slots[x].String(); got != "int32" {
		t.Errorf("post-unify x: %s, want int32", got)
	}
}
