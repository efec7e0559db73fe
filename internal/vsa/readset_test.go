package vsa_test

import (
	"testing"

	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/vsa"
)

// firstValue returns f's first value (phis, then instructions, in block
// order) that satisfies ok, or nil.
func firstValue(f *ir.Func, ok func(v *ir.Value) bool) *ir.Value {
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			if ok(v) {
				return v
			}
		}
		for _, v := range b.Insts {
			if ok(v) {
				return v
			}
		}
	}
	return nil
}

func isOp(op ir.Op) func(*ir.Value) bool {
	return func(v *ir.Value) bool { return v.Op == op }
}

// Every in-place edit the optimizer makes must make a fixpoint stale, and
// undoing the edit must make it current again: the check compares what
// the analysis read, not a counter of edits.
func TestCurrentCatchesInPlaceEdits(t *testing.T) {
	edits := []struct {
		name string
		// edit changes f in place and returns the undo, or returns nil
		// without changing f when f lacks what it edits (irgen draws
		// its operations at random, so some seeds have no load or no
		// store).
		edit func(f *ir.Func) func()
	}{
		{"operand rewire", func(f *ir.Func) func() {
			v := firstValue(f, func(v *ir.Value) bool {
				return v.Op.IsBinALU() && v.Args[0] != v.Args[1]
			})
			old := v.Args[0]
			v.Args[0] = v.Args[1]
			return func() { v.Args[0] = old }
		}},
		{"op replacement", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpXor))
			v.Op = ir.OpOr
			return func() { v.Op = ir.OpXor }
		}},
		{"const change", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpConst))
			v.Const++
			return func() { v.Const-- }
		}},
		{"size change", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpStore))
			if v == nil {
				return nil
			}
			old := v.Size
			v.Size = 2
			return func() { v.Size = old }
		}},
		{"signedness change", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpLoad))
			if v == nil {
				return nil
			}
			v.Signed = !v.Signed
			return func() { v.Signed = !v.Signed }
		}},
		{"condition change", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpCmp))
			old := v.Cond
			v.Cond = old ^ 1
			return func() { v.Cond = old }
		}},
		{"value removal", func(f *ir.Func) func() {
			b := f.Entry()
			old := b.Insts
			b.Insts = append(append([]*ir.Value(nil), old[:1]...), old[2:]...)
			return func() { b.Insts = old }
		}},
		{"value insertion", func(f *ir.Func) func() {
			b := f.Entry()
			old := b.Insts
			c := f.NewValue(ir.OpConst)
			c.Block = b
			b.Insts = append([]*ir.Value{c}, old...)
			return func() { b.Insts = old }
		}},
		{"value hoisted to another block", func(f *ir.Func) func() {
			from, to := f.Blocks[1], f.Entry()
			oldFrom, oldTo := from.Insts, to.Insts
			v := from.Insts[0]
			from.Insts = append([]*ir.Value(nil), from.Insts[1:]...)
			n := len(to.Insts) - 1 // before the terminator
			to.Insts = append(append(append([]*ir.Value(nil), to.Insts[:n]...), v), to.Insts[n:]...)
			return func() { from.Insts, to.Insts = oldFrom, oldTo }
		}},
		{"phi operand change", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpPhi))
			old := v.Args[0]
			v.Args[0] = v.Args[1]
			return func() { v.Args[0] = old }
		}},
		{"phi removal", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpPhi))
			b := v.Block
			old := b.Phis
			b.Phis = nil
			return func() { b.Phis = old }
		}},
		{"successor edit", func(f *ir.Func) func() {
			b := f.Entry()
			b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
			return func() { b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0] }
		}},
		{"predecessor edit", func(f *ir.Func) func() {
			b := firstValue(f, isOp(ir.OpPhi)).Block
			old := b.Preds
			b.Preds = old[:1]
			return func() { b.Preds = old }
		}},
		{"block reorder", func(f *ir.Func) func() {
			n := len(f.Blocks)
			f.Blocks[n-1], f.Blocks[n-2] = f.Blocks[n-2], f.Blocks[n-1]
			return func() { f.Blocks[n-1], f.Blocks[n-2] = f.Blocks[n-2], f.Blocks[n-1] }
		}},
		{"block removal", func(f *ir.Func) func() {
			old := f.Blocks
			f.Blocks = old[:len(old)-1]
			return func() { f.Blocks = old }
		}},
		{"alloca resize", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpAlloca))
			v.AllocSize += 4
			return func() { v.AllocSize -= 4 }
		}},
		{"alloca realign", func(f *ir.Func) func() {
			v := firstValue(f, isOp(ir.OpAlloca))
			old := v.Align
			v.Align = 16
			return func() { v.Align = old }
		}},
		{"external callee change", func(f *ir.Func) func() {
			f = f.Mod.FuncByName("_start")
			v := firstValue(f, isOp(ir.OpCallExt))
			old := v.Sym
			v.Sym = "malloc"
			return func() { v.Sym = old }
		}},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			ran := 0
			for seed := int64(1); seed <= 20; seed++ {
				m := irgen.Build(seed, 3, 5)
				frs := make([]*vsa.FuncResult, len(m.Funcs))
				for i, f := range m.Funcs {
					frs[i] = vsa.Analyze(f)
				}
				undo := e.edit(m.FuncByName("f"))
				if undo == nil {
					continue
				}
				ran++
				stale := 0
				for _, fr := range frs {
					if !fr.Current() {
						stale++
					}
				}
				if stale != 1 {
					t.Fatalf("seed %d: %d of %d fixpoints stale after the edit, want exactly the edited function's",
						seed, stale, len(frs))
				}
				undo()
				for _, fr := range frs {
					if !fr.Current() {
						t.Fatalf("seed %d: %s still stale after the edit was undone", seed, fr.Fn().Name)
					}
				}
			}
			if ran == 0 {
				t.Fatal("no seed produced a function this edit applies to")
			}
		})
	}
}

// Checking an unchanged function must not allocate: the optimizer asks
// once per function and round.
func TestCurrentUnchangedDoesNotAllocate(t *testing.T) {
	m := irgen.Build(7, 3, 5)
	f := m.FuncByName("f")
	fr := vsa.Analyze(f)
	if !fr.Current() {
		t.Fatal("fresh fixpoint is not current")
	}
	if n := testing.AllocsPerRun(100, func() { fr.Current() }); n != 0 {
		t.Errorf("Current allocated %.0f times per call, want 0", n)
	}
}
