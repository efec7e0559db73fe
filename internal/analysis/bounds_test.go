package analysis_test

import (
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/vsa"
)

// The lint's stack-access check (vsa.Check on the function's VSA
// fixpoint) on hand-built functions: a proven access, a proven
// violation, an index nothing bounds and a masked one.

func newFunc() (*ir.Func, *ir.Block) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	m.Entry = f
	return f, f.NewBlock(0)
}

func newConst(f *ir.Func, b *ir.Block, c int32) *ir.Value {
	k := f.NewValue(ir.OpConst)
	k.Const = c
	return b.Append(k)
}

func newAlloca(f *ir.Func, b *ir.Block, name string, size uint32, off int32) *ir.Value {
	a := f.NewValue(ir.OpAlloca)
	a.Name, a.AllocSize, a.Const = name, size, off
	return b.Append(a)
}

func link(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func load(f *ir.Func, b *ir.Block, addr *ir.Value) *ir.Value {
	l := f.NewValue(ir.OpLoad, addr)
	l.Size = 4
	return b.Append(l)
}

// checkFunc runs the stack-access check over f's fixpoint.
func checkFunc(f *ir.Func) (vsa.CheckStats, *analysis.Report) {
	var rep analysis.Report
	return vsa.Check(vsa.Analyze(f), &rep), &rep
}

func TestBoundsProvenAndViolation(t *testing.T) {
	f, b := newFunc()
	a := newAlloca(f, b, "a", 8, -8)
	in := f.NewValue(ir.OpAdd, a, newConst(f, b, 4))
	b.Append(in)
	_ = load(f, b, in) // [4,8): inside
	out := f.NewValue(ir.OpAdd, a, newConst(f, b, 12))
	b.Append(out)
	oob := load(f, b, out) // [12,16): outside [0,8) and the frame [-8,0)
	b.Append(f.NewValue(ir.OpRet, oob))

	st, rep := checkFunc(f)
	if st.Checked != 2 || st.OutOfFrame != 1 || st.CrossSlot+st.OutOfSlot+st.Unbounded != 0 {
		t.Fatalf("stats: %+v\n%s", st, rep)
	}
	if rep.Errors() != 1 || len(rep.Diags) != 1 {
		t.Fatalf("want exactly 1 error, got report:\n%s", rep)
	}
	if !strings.Contains(rep.Diags[0].Msg, "proven outside") {
		t.Errorf("unexpected message %q", rep.Diags[0].Msg)
	}
}

// An index VSA cannot bound is a Warn, not a proven violation and not
// silence: i = phi(0, i+4) widens to its congruence class, so nothing
// keeps a[i] inside a.
func TestBoundsLoopIndexUnproven(t *testing.T) {
	f, entry := newFunc()
	a := newAlloca(f, entry, "a", 16, -16)
	zero := newConst(f, entry, 0)
	header := f.NewBlock(0)
	body := f.NewBlock(0)
	exit := f.NewBlock(0)
	link(entry, header)
	link(header, body)
	link(header, exit)
	link(body, header)
	entry.Append(f.NewValue(ir.OpJmp))

	phi := f.NewValue(ir.OpPhi, zero, nil)
	header.AddPhi(phi)
	header.Append(f.NewValue(ir.OpBr, newConst(f, header, 1)))

	addr := f.NewValue(ir.OpAdd, a, phi)
	body.Append(addr)
	_ = load(f, body, addr)
	next := f.NewValue(ir.OpAdd, phi, newConst(f, body, 4))
	body.Append(next)
	phi.Args[1] = next
	body.Append(f.NewValue(ir.OpJmp))
	exit.Append(f.NewValue(ir.OpRet, phi))

	st, rep := checkFunc(f)
	if rep.Errors() != 0 {
		t.Fatalf("no violation expected:\n%s", rep)
	}
	if st.Unbounded != 1 || rep.Count(analysis.Warn) != 1 {
		t.Fatalf("want 1 unbounded access reported as a Warn, got %+v\n%s", st, rep)
	}
	if d := rep.Diags[0]; d.Check != "vsa" || !strings.Contains(d.Msg, "unbounded") {
		t.Errorf("unexpected finding %s", d)
	}
}

// An index masked to [0, 12] keeps a 4-byte access inside a 16-byte
// object even when the index source is unknown.
func TestBoundsMaskedIndexProven(t *testing.T) {
	f, b := newFunc()
	a := newAlloca(f, b, "a", 16, -16)
	raw := load(f, b, a) // unknown number
	idx := f.NewValue(ir.OpAnd, raw, newConst(f, b, 12))
	b.Append(idx)
	addr := f.NewValue(ir.OpAdd, a, idx)
	b.Append(addr)
	_ = load(f, b, addr)
	b.Append(f.NewValue(ir.OpRet, raw))

	st, rep := checkFunc(f)
	if st.Checked != 2 || len(rep.Diags) != 0 {
		t.Fatalf("stats: %+v\n%s", st, rep)
	}
}
