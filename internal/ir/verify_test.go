package ir_test

import (
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// valid returns a minimal well-formed module: _start with a const and a
// trap, plus a one-param callee, wired for call-site checks.
func valid() (*ir.Module, *ir.Func, *ir.Block) {
	m := ir.NewModule("v")
	callee := m.NewFunc("callee", 0x2000)
	callee.NumRet = 1
	callee.NewParam(isa.EAX, "a")
	cb := callee.NewBlock(0)
	k := callee.NewValue(ir.OpConst)
	k.Const = 1
	cb.Append(k)
	cb.Append(callee.NewValue(ir.OpRet, k))

	f := m.NewFunc("_start", 0x1000)
	b := f.NewBlock(0)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	return m, f, b
}

func TestVerifyAcceptsValid(t *testing.T) {
	m, _, _ := valid()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
}

// Every structural violation class must be caught with a recognizable
// message.
func TestVerifyViolations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(m *ir.Module, f *ir.Func, b *ir.Block)
		want string
	}{
		{"no-blocks", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			f.Blocks = nil
		}, "no blocks"},
		{"missing-terminator", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b.Insts = nil
		}, "terminator"},
		{"terminator-mid-block", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			tr := f.NewValue(ir.OpTrap)
			tr.Block = b
			b.Insts = append([]*ir.Value{tr}, b.Insts...)
		}, "mid-block"},
		{"wrong-block-backptr", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			k.Block = nil // lie about ownership
			b.Insts = append([]*ir.Value{k}, b.Insts...)
		}, "wrong block"},
		{"jmp-succ-count", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b.Insts = b.Insts[:0]
			j := f.NewValue(ir.OpJmp)
			j.Block = b
			b.Insts = append(b.Insts, j) // no successors
		}, "jmp with"},
		{"br-succ-count", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			b.Insts = b.Insts[:0]
			b.Append(k)
			br := f.NewValue(ir.OpBr, k)
			b.Append(br)
			b.Succs = []*ir.Block{b} // one succ, br needs two
		}, "br with"},
		{"br-arity", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b2 := f.NewBlock(0)
			b2.Preds = []*ir.Block{b, b}
			tr := f.NewValue(ir.OpTrap)
			b2.Append(tr)
			b.Insts = b.Insts[:0]
			br := f.NewValue(ir.OpBr) // no condition arg
			b.Append(br)
			b.Succs = []*ir.Block{b2, b2}
		}, "br with"},
		{"switch-succ-mismatch", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			b.Insts = b.Insts[:0]
			b.Append(k)
			sw := f.NewValue(ir.OpSwitch, k)
			sw.Cases = []ir.SwitchCase{{Val: 1}}
			b.Append(sw)
			b.Succs = nil // needs 2
		}, "switch with"},
		{"ret-arity", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b.Insts = b.Insts[:0]
			r := f.NewValue(ir.OpRet) // _start has NumRet 0, so make it 1
			b.Append(r)
			f.NumRet = 1
		}, "ret with"},
		{"ret-with-succs", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b.Insts = b.Insts[:0]
			b.Append(f.NewValue(ir.OpRet))
			b.Succs = []*ir.Block{b}
		}, "ret with successors"},
		{"trap-with-succs", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b.Succs = []*ir.Block{b}
			b.Preds = []*ir.Block{b}
		}, "trap with successors"},
		{"asymmetric-edge", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b2 := f.NewBlock(0)
			b2.Append(f.NewValue(ir.OpTrap))
			b.Insts = b.Insts[:0]
			b.Append(f.NewValue(ir.OpJmp))
			b.Succs = []*ir.Block{b2} // b2.Preds not updated
		}, "backlink"},
		{"asymmetric-pred", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			b2 := f.NewBlock(0)
			b2.Append(f.NewValue(ir.OpTrap))
			b2.Preds = []*ir.Block{b} // b.Succs not updated
		}, "succ link"},
		{"phi-arity", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			b.Insts = append([]*ir.Value{k}, b.Insts...)
			k.Block = b
			phi := f.NewValue(ir.OpPhi, k) // 1 arg, 0 preds
			b.AddPhi(phi)
		}, "phi"},
		{"non-phi-in-phis", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			k.Block = b
			b.Phis = append(b.Phis, k)
		}, "non-phi"},
		{"nil-arg", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			v := f.NewValue(ir.OpNeg, nil)
			v.Block = b
			b.Insts = append([]*ir.Value{v}, b.Insts...)
		}, "nil arg"},
		{"foreign-value", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			other := m.FuncByName("callee")
			foreign := other.Blocks[0].Insts[0] // callee's const
			v := f.NewValue(ir.OpNeg, foreign)
			v.Block = b
			b.Insts = append([]*ir.Value{v}, b.Insts...)
		}, "foreign"},
		{"call-no-callee", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			c := f.NewValue(ir.OpCall)
			c.Block = b
			b.Insts = append([]*ir.Value{c}, b.Insts...)
		}, "without callee"},
		{"call-arity", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			c := f.NewValue(ir.OpCall) // callee wants 1 arg
			c.Callee = m.FuncByName("callee")
			c.NumRet = 1
			c.Block = b
			b.Insts = append([]*ir.Value{c}, b.Insts...)
		}, "args"},
		{"call-numret", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			k.Block = b
			c := f.NewValue(ir.OpCall, k)
			c.Callee = m.FuncByName("callee")
			c.NumRet = 5
			c.Block = b
			b.Insts = append([]*ir.Value{k, c}, b.Insts...)
		}, "NumRet"},
		{"extract-oob", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			k.Block = b
			c := f.NewValue(ir.OpCall, k)
			c.Callee = m.FuncByName("callee")
			c.NumRet = 1
			c.Block = b
			e := f.NewValue(ir.OpExtract, c)
			e.Idx = 2
			e.Block = b
			b.Insts = append([]*ir.Value{k, c, e}, b.Insts...)
		}, "out of"},
		{"load-arity", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			v := f.NewValue(ir.OpLoad)
			v.Block = b
			b.Insts = append([]*ir.Value{v}, b.Insts...)
		}, "load"},
		{"store-arity", func(m *ir.Module, f *ir.Func, b *ir.Block) {
			k := f.NewValue(ir.OpConst)
			k.Block = b
			v := f.NewValue(ir.OpStore, k)
			v.Block = b
			b.Insts = append([]*ir.Value{k, v}, b.Insts...)
		}, "store"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, f, b := valid()
			c.mut(m, f, b)
			err := ir.Verify(m)
			if err == nil {
				t.Fatal("verifier accepted broken module")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// Dominance: a use in a block that the definition does not dominate must be
// rejected, both for plain instructions and for phi edge arguments.
func TestVerifyDominance(t *testing.T) {
	build := func() (*ir.Module, *ir.Func, *ir.Block, *ir.Block, *ir.Block, *ir.Block) {
		// entry -> (then | else) -> join diamond.
		m := ir.NewModule("d")
		f := m.NewFunc("f", 0x1000)
		f.NumRet = 1
		entry := f.NewBlock(0)
		thenB := f.NewBlock(0)
		elseB := f.NewBlock(0)
		join := f.NewBlock(0)
		cond := f.NewValue(ir.OpConst)
		cond.Const = 1
		entry.Append(cond)
		entry.Append(f.NewValue(ir.OpBr, cond))
		entry.Succs = []*ir.Block{thenB, elseB}
		thenB.Preds = []*ir.Block{entry}
		elseB.Preds = []*ir.Block{entry}
		thenB.Append(f.NewValue(ir.OpJmp))
		thenB.Succs = []*ir.Block{join}
		elseB.Append(f.NewValue(ir.OpJmp))
		elseB.Succs = []*ir.Block{join}
		join.Preds = []*ir.Block{thenB, elseB}
		m.Entry = f
		return m, f, entry, thenB, elseB, join
	}

	t.Run("cross-branch-use", func(t *testing.T) {
		m, f, _, thenB, elseB, join := build()
		tv := f.NewValue(ir.OpConst)
		tv.Const = 7
		tv.Block = thenB
		thenB.Insts = append([]*ir.Value{tv}, thenB.Insts...)
		// elseB uses a value defined only on the then path.
		use := f.NewValue(ir.OpNeg, tv)
		use.Block = elseB
		elseB.Insts = append([]*ir.Value{use}, elseB.Insts...)
		join.Append(f.NewValue(ir.OpRet, use))
		err := ir.Verify(m)
		if err == nil || !strings.Contains(err.Error(), "before its definition dominates it") {
			t.Fatalf("cross-branch use not caught: %v", err)
		}
	})

	t.Run("use-before-def-in-block", func(t *testing.T) {
		m, f, entry, _, _, join := build()
		k := f.NewValue(ir.OpConst)
		k.Const = 3
		use := f.NewValue(ir.OpNeg, k)
		use.Block = entry
		k.Block = entry
		// use placed before its definition in the same block.
		entry.Insts = append([]*ir.Value{use, k}, entry.Insts...)
		join.Append(f.NewValue(ir.OpRet, use))
		err := ir.Verify(m)
		if err == nil || !strings.Contains(err.Error(), "before its definition") {
			t.Fatalf("in-block use-before-def not caught: %v", err)
		}
	})

	t.Run("phi-arg-wrong-pred", func(t *testing.T) {
		m, f, _, thenB, elseB, join := build()
		tv := f.NewValue(ir.OpConst)
		tv.Const = 7
		tv.Block = thenB
		thenB.Insts = append([]*ir.Value{tv}, thenB.Insts...)
		ev := f.NewValue(ir.OpConst)
		ev.Const = 9
		ev.Block = elseB
		elseB.Insts = append([]*ir.Value{ev}, elseB.Insts...)
		// Swapped: the else edge claims the then-path value and vice versa.
		phi := f.NewValue(ir.OpPhi, ev, tv)
		join.AddPhi(phi)
		join.Append(f.NewValue(ir.OpRet, phi))
		err := ir.Verify(m)
		if err == nil || !strings.Contains(err.Error(), "not available at end of pred") {
			t.Fatalf("phi edge mismatch not caught: %v", err)
		}
	})

	t.Run("valid-diamond-with-phi", func(t *testing.T) {
		m, f, _, thenB, elseB, join := build()
		tv := f.NewValue(ir.OpConst)
		tv.Const = 7
		tv.Block = thenB
		thenB.Insts = append([]*ir.Value{tv}, thenB.Insts...)
		ev := f.NewValue(ir.OpConst)
		ev.Const = 9
		ev.Block = elseB
		elseB.Insts = append([]*ir.Value{ev}, elseB.Insts...)
		phi := f.NewValue(ir.OpPhi, tv, ev)
		join.AddPhi(phi)
		join.Append(f.NewValue(ir.OpRet, phi))
		if err := ir.Verify(m); err != nil {
			t.Fatalf("valid diamond rejected: %v", err)
		}
	})
}

// Location strings must be stable and greppable: func:bN:iK for
// instructions, func:bN:pK for phis, paramN for detached parameters.
func TestValueLocation(t *testing.T) {
	m, f, b := valid()
	_ = m
	k := f.NewValue(ir.OpConst)
	k.Const = 5
	k.Block = b
	b.Insts = append([]*ir.Value{k}, b.Insts...)
	if got := k.Location(); got != "_start:b0:i0" {
		t.Errorf("inst location = %q, want _start:b0:i0", got)
	}
	phi := f.NewValue(ir.OpPhi)
	b.AddPhi(phi)
	if got := phi.Location(); got != "_start:b0:p0" {
		t.Errorf("phi location = %q, want _start:b0:p0", got)
	}
	p := f.NewParam(isa.EAX, "x")
	if got := p.Location(); got != "param0" {
		t.Errorf("param location = %q, want param0", got)
	}
}

// Verify's ownership table is indexed by slot. A value moved into another
// function keeps the slot of its old layout, which collides with one of
// the new owner's: Verify must relayout and accept it, and still reject a
// value that belongs to another function.
func TestVerifyMovedValue(t *testing.T) {
	m := ir.NewModule("t")
	f1 := buildRetConst(m, "f1", 1)
	f2 := m.NewFunc("f2", 0x2000)
	f2.NumRet = 1
	e2 := f2.NewBlock(0)
	k2 := e2.Append(f2.NewValue(ir.OpConst))
	sum := e2.Append(f2.NewValue(ir.OpAdd, k2, k2))
	e2.Append(f2.NewValue(ir.OpRet, sum))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Move f1's constant (slot 0) to the top of f2, whose own constant
	// also has slot 0, and add it there.
	e1 := f1.Entry()
	k := e1.Insts[0]
	e1.Insts = e1.Insts[1:]
	k.Block = e2
	e2.Insts = append([]*ir.Value{k}, e2.Insts...)
	sum.Args[0] = k
	repl := f1.NewValue(ir.OpConst)
	repl.Block = e1
	e1.Insts = append([]*ir.Value{repl}, e1.Insts...)
	e1.Term().Args[0] = repl
	if err := ir.Verify(m); err != nil {
		t.Fatalf("moved value rejected: %v", err)
	}
	e1.Term().Args[0] = k2
	err := ir.Verify(m)
	if err == nil || !strings.Contains(err.Error(), "func f1") || !strings.Contains(err.Error(), "foreign value") {
		t.Fatalf("f1 returning f2's constant: got %v, want a foreign-value error", err)
	}
}
