package ir_test

import (
	"slices"
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// buildRetConst makes func() -> 1 { ret const }.
func buildRetConst(m *ir.Module, name string, c int32) *ir.Func {
	f := m.NewFunc(name, 0x1000)
	f.NumRet = 1
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst)
	k.Const = c
	b.Append(k)
	b.Append(f.NewValue(ir.OpRet, k))
	return f
}

func TestVerifyOK(t *testing.T) {
	m := ir.NewModule("t")
	f := buildRetConst(m, "f", 7)
	m.Entry = f
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst)
	b.Append(k)
	if err := ir.Verify(m); err == nil {
		t.Error("missing terminator accepted")
	}
}

func TestVerifyCatchesForeignValue(t *testing.T) {
	m := ir.NewModule("t")
	f1 := buildRetConst(m, "f1", 1)
	f2 := m.NewFunc("f2", 0x2000)
	f2.NumRet = 1
	b := f2.NewBlock(0)
	// Return f1's constant: foreign.
	foreign := f1.Entry().Insts[0]
	b.Append(f2.NewValue(ir.OpRet, foreign))
	if err := ir.Verify(m); err == nil {
		t.Error("foreign value accepted")
	}
}

func TestVerifyCatchesRetArity(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 2
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst)
	b.Append(k)
	b.Append(f.NewValue(ir.OpRet, k)) // only one value
	if err := ir.Verify(m); err == nil {
		t.Error("ret arity mismatch accepted")
	}
}

func TestVerifyCatchesPhiArity(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	b0 := f.NewBlock(0)
	b1 := f.NewBlock(0)
	b0.Succs = []*ir.Block{b1}
	b1.Preds = []*ir.Block{b0}
	b0.Append(f.NewValue(ir.OpJmp))
	k := f.NewValue(ir.OpConst)
	b1.Append(k)
	phi := f.NewValue(ir.OpPhi, k, k) // 2 args, 1 pred
	b1.AddPhi(phi)
	b1.Append(f.NewValue(ir.OpRet, phi))
	if err := ir.Verify(m); err == nil {
		t.Error("phi arity mismatch accepted")
	}
}

func TestVerifyCatchesBrokenEdges(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 0
	b0 := f.NewBlock(0)
	b1 := f.NewBlock(0)
	b0.Succs = []*ir.Block{b1} // missing back link
	b0.Append(f.NewValue(ir.OpJmp))
	b1.Append(f.NewValue(ir.OpRet))
	if err := ir.Verify(m); err == nil {
		t.Error("asymmetric edge accepted")
	}
}

func TestCallArityChecked(t *testing.T) {
	m := ir.NewModule("t")
	callee := m.NewFunc("callee", 0x2000)
	callee.NumRet = 1
	callee.NewParam(isa.EAX, "a")
	cb := callee.NewBlock(0)
	cb.Append(callee.NewValue(ir.OpRet, callee.Params[0]))

	f := m.NewFunc("f", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	call := f.NewValue(ir.OpCall) // zero args for 1-param callee
	call.Callee = callee
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpRet))
	if err := ir.Verify(m); err == nil {
		t.Error("call arity mismatch accepted")
	}
}

func TestPrinterOutput(t *testing.T) {
	m := ir.NewModule("demo")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	p := f.NewParam(isa.EAX, "eax")
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst)
	k.Const = 5
	b.Append(k)
	add := f.NewValue(ir.OpAdd, p, k)
	b.Append(add)
	b.Append(f.NewValue(ir.OpRet, add))
	m.Entry = f

	out := m.String()
	for _, want := range []string{"module demo", "func f(", "const 5", "add", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestFuncHelpers(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0x1234)
	f.NewParam(isa.ESP, "esp")
	f.RetRegs = []isa.Reg{isa.EAX, isa.ESP}
	if f.ParamByReg(isa.ESP) == nil || f.ParamByReg(isa.EBX) != nil {
		t.Error("ParamByReg wrong")
	}
	if f.RetIndexOf(isa.ESP) != 1 || f.RetIndexOf(isa.EDI) != -1 {
		t.Error("RetIndexOf wrong")
	}
	if m.FuncAt(0x1234) != f || m.FuncAt(0x9999) != nil {
		t.Error("FuncAt wrong")
	}
	if m.FuncByName("f") != f || m.FuncByName("g") != nil {
		t.Error("FuncByName wrong")
	}
}

func TestOpClassifiers(t *testing.T) {
	if !ir.OpJmp.IsTerm() || !ir.OpRet.IsTerm() || ir.OpAdd.IsTerm() {
		t.Error("IsTerm wrong")
	}
	if ir.OpStore.HasResult() || !ir.OpLoad.HasResult() || !ir.OpCall.HasResult() {
		t.Error("HasResult wrong")
	}
	if !ir.OpAdd.IsBinALU() || !ir.OpSar.IsBinALU() || ir.OpNeg.IsBinALU() {
		t.Error("IsBinALU wrong")
	}
}

// IndirectGroups unions the targets of each indirect call transitively
// and leaves out functions that share no indirect call site.
func TestIndirectGroups(t *testing.T) {
	m := ir.NewModule("t")
	fs := map[string]*ir.Func{}
	for i, n := range []string{"main", "c", "b", "a", "d", "f", "e"} {
		fs[n] = m.NewFunc(n, uint32(0x1000+0x100*i))
	}
	b := fs["main"].NewBlock(0)
	for _, targets := range [][]string{{"c", "b"}, {"a", "b"}, {"d"}, {"f", "e"}} {
		call := fs["main"].NewValue(ir.OpCallInd, b.Append(fs["main"].NewValue(ir.OpConst)))
		for _, n := range targets {
			call.Targets = append(call.Targets, fs[n])
		}
		b.Append(call)
	}
	var got []string
	for _, g := range m.IndirectGroups() {
		var names []string
		for _, f := range g {
			names = append(names, f.Name)
		}
		got = append(got, strings.Join(names, ","))
	}
	slices.Sort(got)
	if want := []string{"a,b,c", "e,f"}; !slices.Equal(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}
