package vsa

import (
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
)

func load(f *ir.Func, b *ir.Block, addr *ir.Value) *ir.Value {
	l := f.NewValue(ir.OpLoad, addr)
	l.Size = 4
	b.Append(l)
	return l
}

// checkFunc runs the layout verifier over f's fixpoint.
func checkFunc(f *ir.Func) (CheckStats, *analysis.Report) {
	var rep analysis.Report
	return Check(Analyze(f), &rep), &rep
}

// An access proven to leave its slot is an Error even when it stays
// inside the frame: symbolization assigned it to the wrong object. Both
// shapes — wholly inside the neighbour and straddling the slot's end —
// are proven.
func TestCheckOutOfSlotIsError(t *testing.T) {
	_, f, b := mkFunc("f")
	x := alloca(f, b, "x", 8, -16)
	alloca(f, b, "y", 8, -8)
	inY := f.NewValue(ir.OpAdd, x, konst(f, b, 8)) // [8,12): all of it in y
	b.Append(inY)
	_ = load(f, b, inY)
	straddle := f.NewValue(ir.OpAdd, x, konst(f, b, 6)) // [6,10): past x's end
	b.Append(straddle)
	_ = load(f, b, straddle)
	b.Append(f.NewValue(ir.OpRet, konst(f, b, 0)))

	st, rep := checkFunc(f)
	if st.OutOfSlot != 2 || st.CrossSlot+st.OutOfFrame+st.Unbounded != 0 {
		t.Fatalf("stats = %+v, want OutOfSlot 2\n%s", st, rep)
	}
	if rep.Errors() != 2 || len(rep.Diags) != 2 {
		t.Fatalf("want 2 errors, got report:\n%s", rep)
	}
	if r := Admit(Analyze(f)); r.OK || !strings.Contains(r.Reason, "leave their slot") {
		t.Errorf("admission = %+v, want a rejection for leaving the slot", r)
	}
}

// An alloca plus an unknown number falls to Top, losing its region; the
// escape analysis still roots the address at the alloca, so the access
// is a Warn, not silence.
func TestCheckTopAddressRootedWarns(t *testing.T) {
	_, f, b := mkFunc("f")
	a := alloca(f, b, "a", 16, -16)
	idx := load(f, b, konst(f, b, 0x1000)) // an untracked global: Top
	addr := f.NewValue(ir.OpAdd, a, idx)
	b.Append(addr)
	_ = load(f, b, addr)
	b.Append(f.NewValue(ir.OpRet, idx))

	st, rep := checkFunc(f)
	if st.Checked != 1 || st.Unbounded != 1 || rep.Count(analysis.Warn) != 1 || rep.Errors() != 0 {
		t.Fatalf("stats = %+v, want the rooted access checked as unbounded\n%s", st, rep)
	}
}
