package irexec_test

import (
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
)

// runUnit builds a module whose _start exits with the value produced by
// build, then runs it and returns the exit code.
func runUnit(t *testing.T, build func(f *ir.Func, b *ir.Block) *ir.Value) int32 {
	t.Helper()
	m := ir.NewModule("unit")
	f := m.NewFunc("_start", 0x1000)
	b := f.NewBlock(0)
	res := build(f, b)
	call := f.NewValue(ir.OpCallExt, res)
	call.Sym = "exit"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	r, err := irexec.Run(m, machine.Input{}, nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r.ExitCode
}

func konst(f *ir.Func, b *ir.Block, c int32) *ir.Value {
	v := f.NewValue(ir.OpConst)
	v.Const = c
	b.Append(v)
	return v
}

// Exit codes are truncated to a byte by the simulated libc, so unit results
// are reduced mod 251 before exiting.
func exitable(f *ir.Func, b *ir.Block, v *ir.Value) *ir.Value {
	m := konst(f, b, 251)
	mod := f.NewValue(ir.OpMod, v, m)
	b.Append(mod)
	k := konst(f, b, 251)
	add := f.NewValue(ir.OpAdd, mod, k)
	b.Append(add)
	m2 := konst(f, b, 251)
	mod2 := f.NewValue(ir.OpMod, add, m2)
	b.Append(mod2)
	return mod2
}

func TestBinaryOpSemantics(t *testing.T) {
	cases := []struct {
		op   ir.Op
		a, b int32
		want uint32
	}{
		{ir.OpAdd, 7, -3, 4},
		{ir.OpAdd, 1<<31 - 1, 1, 1 << 31}, // wraparound
		{ir.OpSub, 3, 10, uint32(0xFFFFFFF9)},
		{ir.OpMul, -4, 3, uint32(0xFFFFFFF4)},
		{ir.OpDiv, -7, 2, uint32(0xFFFFFFFD)}, // trunc toward zero
		{ir.OpDiv, 7, -2, uint32(0xFFFFFFFD)},
		{ir.OpMod, -7, 2, uint32(0xFFFFFFFF)}, // sign follows dividend
		{ir.OpMod, 7, -2, 1},
		{ir.OpAnd, 0x0FF0, 0x00FF, 0x00F0},
		{ir.OpOr, 0x0F00, 0x00F0, 0x0FF0},
		{ir.OpXor, -1, 0x0F, uint32(0xFFFFFFF0)},
		{ir.OpShl, 1, 33, 2}, // shift counts mask to 5 bits
		{ir.OpShr, -1, 28, 15},
		{ir.OpSar, -16, 2, uint32(0xFFFFFFFC)},
	}
	for _, c := range cases {
		c := c
		name := c.op.String()
		t.Run(name, func(t *testing.T) {
			got := runUnit(t, func(f *ir.Func, b *ir.Block) *ir.Value {
				x := konst(f, b, c.a)
				y := konst(f, b, c.b)
				v := f.NewValue(c.op, x, y)
				b.Append(v)
				return exitable(f, b, v)
			})
			want := (int32(c.want)%251 + 251) % 251
			if got != want {
				t.Errorf("%s(%d,%d) mod 251 = %d, want %d", name, c.a, c.b, got, want)
			}
		})
	}
}

func TestUnaryOpSemantics(t *testing.T) {
	cases := []struct {
		name  string
		build func(f *ir.Func, b *ir.Block) *ir.Value
		want  int32
	}{
		{"neg", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpNeg, konst(f, b, -77))
			b.Append(v)
			return v
		}, 77},
		{"not", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpNot, konst(f, b, -101))
			b.Append(v)
			return v
		}, 100},
		{"subreg8", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpSubreg8, konst(f, b, 0x100), konst(f, b, 0x1FF))
			b.Append(v) // (0x100 &^ 0xFF) | 0xFF = 0x1FF = 511... mod exit below
			k := konst(f, b, 0x1FD)
			s := f.NewValue(ir.OpSub, v, k)
			b.Append(s)
			return s
		}, 2},
		{"sext8", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpSext, konst(f, b, 0xFE))
			v.Size = 1
			b.Append(v)
			n := f.NewValue(ir.OpNeg, v)
			b.Append(n)
			return n
		}, 2},
		{"sext16", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpSext, konst(f, b, 0xFFFD))
			v.Size = 2
			b.Append(v)
			n := f.NewValue(ir.OpNeg, v)
			b.Append(n)
			return n
		}, 3},
		{"zext8", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpZext, konst(f, b, 0x1FF))
			v.Size = 1
			b.Append(v)
			k := konst(f, b, 0xF9)
			s := f.NewValue(ir.OpSub, v, k)
			b.Append(s)
			return s
		}, 6},
		{"zext16", func(f *ir.Func, b *ir.Block) *ir.Value {
			v := f.NewValue(ir.OpZext, konst(f, b, 0x10007))
			v.Size = 2
			b.Append(v)
			return v
		}, 7},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := runUnit(t, c.build); got != c.want {
				t.Errorf("= %d, want %d", got, c.want)
			}
		})
	}
}

func TestCmpAllConditions(t *testing.T) {
	type trio struct{ a, b int32 }
	// Pairs chosen so signed and unsigned orderings disagree.
	pairs := []trio{{-1, 1}, {1, -1}, {5, 5}, {2, 3}}
	want := map[isa.Cond][]int32{
		isa.CondEQ: {0, 0, 1, 0},
		isa.CondNE: {1, 1, 0, 1},
		isa.CondLT: {1, 0, 0, 1},
		isa.CondLE: {1, 0, 1, 1},
		isa.CondGT: {0, 1, 0, 0},
		isa.CondGE: {0, 1, 1, 0},
		isa.CondB:  {0, 1, 0, 1}, // 0xFFFFFFFF unsigned-greater than 1
		isa.CondBE: {0, 1, 1, 1},
		isa.CondA:  {1, 0, 0, 0},
		isa.CondAE: {1, 0, 1, 0},
	}
	for cond, exp := range want {
		for i, p := range pairs {
			cond, exp, i, p := cond, exp, i, p
			t.Run(cond.String(), func(t *testing.T) {
				got := runUnit(t, func(f *ir.Func, b *ir.Block) *ir.Value {
					c := f.NewValue(ir.OpCmp, konst(f, b, p.a), konst(f, b, p.b))
					c.Cond = cond
					b.Append(c)
					return c
				})
				if got != exp[i] {
					t.Errorf("cmp.%s(%d,%d) = %d, want %d", cond, p.a, p.b, got, exp[i])
				}
			})
		}
	}
}

// A diamond CFG with a phi join: exercises OpBr, OpJmp, phi evaluation and
// predecessor matching.
func TestBranchAndPhi(t *testing.T) {
	for _, sel := range []int32{0, 1} {
		sel := sel
		got := func() int32 {
			m := ir.NewModule("phi")
			f := m.NewFunc("_start", 0x1000)
			entry := f.NewBlock(0)
			then := f.NewBlock(0)
			els := f.NewBlock(0)
			join := f.NewBlock(0)

			c := f.NewValue(ir.OpConst)
			c.Const = sel
			entry.Append(c)
			br := f.NewValue(ir.OpBr, c)
			entry.Append(br)
			entry.Succs = []*ir.Block{then, els}
			then.Preds = []*ir.Block{entry}
			els.Preds = []*ir.Block{entry}

			a := f.NewValue(ir.OpConst)
			a.Const = 11
			then.Append(a)
			then.Append(f.NewValue(ir.OpJmp))
			then.Succs = []*ir.Block{join}

			d := f.NewValue(ir.OpConst)
			d.Const = 22
			els.Append(d)
			els.Append(f.NewValue(ir.OpJmp))
			els.Succs = []*ir.Block{join}

			join.Preds = []*ir.Block{then, els}
			phi := f.NewValue(ir.OpPhi, a, d)
			join.AddPhi(phi)
			call := f.NewValue(ir.OpCallExt, phi)
			call.Sym = "exit"
			call.NumRet = 1
			join.Append(call)
			join.Append(f.NewValue(ir.OpTrap))

			m.Entry = f
			r, err := irexec.Run(m, machine.Input{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r.ExitCode
		}()
		want := int32(22)
		if sel != 0 {
			want = 11
		}
		if got != want {
			t.Errorf("sel=%d: exit %d, want %d", sel, got, want)
		}
	}
}

func TestSwitchDispatch(t *testing.T) {
	build := func(sel int32) int32 {
		m := ir.NewModule("sw")
		f := m.NewFunc("_start", 0x1000)
		entry := f.NewBlock(0)
		c1 := f.NewBlock(0)
		c2 := f.NewBlock(0)
		def := f.NewBlock(0)

		s := f.NewValue(ir.OpConst)
		s.Const = sel
		entry.Append(s)
		sw := f.NewValue(ir.OpSwitch, s)
		sw.Cases = []ir.SwitchCase{{Val: 10}, {Val: 20}}
		entry.Append(sw)
		entry.Succs = []*ir.Block{c1, c2, def}

		exit := func(b *ir.Block, code int32) {
			k := f.NewValue(ir.OpConst)
			k.Const = code
			b.Append(k)
			call := f.NewValue(ir.OpCallExt, k)
			call.Sym = "exit"
			call.NumRet = 1
			b.Append(call)
			b.Append(f.NewValue(ir.OpTrap))
		}
		exit(c1, 1)
		exit(c2, 2)
		exit(def, 3)
		m.Entry = f
		r, err := irexec.Run(m, machine.Input{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.ExitCode
	}
	if got := build(10); got != 1 {
		t.Errorf("switch(10) = %d, want 1", got)
	}
	if got := build(20); got != 2 {
		t.Errorf("switch(20) = %d, want 2", got)
	}
	if got := build(99); got != 3 {
		t.Errorf("switch(99) = %d, want 3", got)
	}
}

// A callee returning a 2-tuple, consumed through OpExtract; plus an
// indirect call dispatching on the callee's original address.
func TestTupleCallAndIndirect(t *testing.T) {
	m := ir.NewModule("tuple")

	callee := m.NewFunc("divmod", 0x2000)
	callee.NumRet = 2
	pa := callee.NewParam(isa.EAX, "a")
	pb := callee.NewParam(isa.ECX, "b")
	cb := callee.NewBlock(0)
	q := callee.NewValue(ir.OpDiv, pa, pb)
	cb.Append(q)
	rm := callee.NewValue(ir.OpMod, pa, pb)
	cb.Append(rm)
	ret := callee.NewValue(ir.OpRet, q, rm)
	cb.Append(ret)

	f := m.NewFunc("_start", 0x1000)
	b := f.NewBlock(0)
	x := konst(f, b, 47)
	y := konst(f, b, 10)
	call := f.NewValue(ir.OpCall, x, y)
	call.Callee = callee
	call.NumRet = 2
	b.Append(call)
	e0 := f.NewValue(ir.OpExtract, call)
	e0.Idx = 0
	b.Append(e0)
	e1 := f.NewValue(ir.OpExtract, call)
	e1.Idx = 1
	b.Append(e1)

	// Indirect call to the same function through its address.
	addr := konst(f, b, 0x2000)
	ind := f.NewValue(ir.OpCallInd, addr, x, y)
	ind.NumRet = 2
	ind.Targets = []*ir.Func{callee}
	b.Append(ind)
	i0 := f.NewValue(ir.OpExtract, ind)
	i0.Idx = 0
	b.Append(i0)

	// 4*10 + 7 + 4 = 51
	ten := konst(f, b, 10)
	t1 := f.NewValue(ir.OpMul, e0, ten)
	b.Append(t1)
	t2 := f.NewValue(ir.OpAdd, t1, e1)
	b.Append(t2)
	t3 := f.NewValue(ir.OpAdd, t2, i0)
	b.Append(t3)

	call2 := f.NewValue(ir.OpCallExt, t3)
	call2.Sym = "exit"
	call2.NumRet = 1
	b.Append(call2)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f

	r, err := irexec.Run(m, machine.Input{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 51 {
		t.Errorf("exit = %d, want 51", r.ExitCode)
	}
}

// Error paths must be reported as errors with useful context.
func TestErrorPaths(t *testing.T) {
	t.Run("indirect-unknown-target", func(t *testing.T) {
		m := ir.NewModule("bad")
		f := m.NewFunc("_start", 0x1000)
		b := f.NewBlock(0)
		addr := konst(f, b, 0xDEAD)
		ind := f.NewValue(ir.OpCallInd, addr)
		ind.NumRet = 0
		b.Append(ind)
		b.Append(f.NewValue(ir.OpTrap))
		m.Entry = f
		_, err := irexec.Run(m, machine.Input{}, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("err = %v, want unknown-target error", err)
		}
	})
	t.Run("extract-out-of-range", func(t *testing.T) {
		m := ir.NewModule("bad")
		callee := m.NewFunc("one", 0x2000)
		callee.NumRet = 1
		cb := callee.NewBlock(0)
		k := callee.NewValue(ir.OpConst)
		k.Const = 5
		cb.Append(k)
		cb.Append(callee.NewValue(ir.OpRet, k))

		f := m.NewFunc("_start", 0x1000)
		b := f.NewBlock(0)
		call := f.NewValue(ir.OpCall)
		call.Callee = callee
		call.NumRet = 1
		b.Append(call)
		e := f.NewValue(ir.OpExtract, call)
		e.Idx = 3
		b.Append(e)
		b.Append(f.NewValue(ir.OpTrap))
		m.Entry = f
		_, err := irexec.Run(m, machine.Input{}, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "extract") {
			t.Errorf("err = %v, want extract error", err)
		}
	})
	t.Run("arg-count-mismatch", func(t *testing.T) {
		m := ir.NewModule("bad")
		callee := m.NewFunc("two", 0x2000)
		callee.NumRet = 0
		callee.NewParam(isa.EAX, "a")
		cb := callee.NewBlock(0)
		cb.Append(callee.NewValue(ir.OpRet))

		f := m.NewFunc("_start", 0x1000)
		b := f.NewBlock(0)
		call := f.NewValue(ir.OpCall) // zero args for a 1-param callee
		call.Callee = callee
		call.NumRet = 0
		b.Append(call)
		b.Append(f.NewValue(ir.OpTrap))
		m.Entry = f
		_, err := irexec.Run(m, machine.Input{}, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "args") {
			t.Errorf("err = %v, want arg-count error", err)
		}
	})
	t.Run("load-fault", func(t *testing.T) {
		m := ir.NewModule("bad")
		f := m.NewFunc("_start", 0x1000)
		b := f.NewBlock(0)
		z := konst(f, b, 4)
		ld := f.NewValue(ir.OpLoad, z)
		ld.Size = 4
		b.Append(ld)
		b.Append(f.NewValue(ir.OpTrap))
		m.Entry = f
		_, err := irexec.Run(m, machine.Input{}, nil, nil)
		if err == nil {
			t.Error("null-page load did not fault")
		}
	})
	t.Run("unknown-external", func(t *testing.T) {
		m := ir.NewModule("bad")
		f := m.NewFunc("_start", 0x1000)
		b := f.NewBlock(0)
		call := f.NewValue(ir.OpCallExt)
		call.Sym = "no_such_fn"
		call.NumRet = 1
		b.Append(call)
		b.Append(f.NewValue(ir.OpTrap))
		m.Entry = f
		_, err := irexec.Run(m, machine.Input{}, nil, nil)
		if err == nil {
			t.Error("unknown external accepted")
		}
	})
}

// Raw external calls read their arguments from emulated-stack memory
// (BinRec stack switching): args live at [base, base+4, ...].
func TestCallExtRaw(t *testing.T) {
	m := ir.NewModule("raw")
	f := m.NewFunc("_start", 0x1000)
	b := f.NewBlock(0)
	buf := f.NewValue(ir.OpAlloca)
	buf.AllocSize = 8
	buf.Name = "args"
	b.Append(buf)
	code := konst(f, b, 29)
	st := f.NewValue(ir.OpStore, buf, code)
	st.Size = 4
	b.Append(st)
	call := f.NewValue(ir.OpCallExtRaw, buf)
	call.Sym = "exit"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	r, err := irexec.Run(m, machine.Input{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 29 {
		t.Errorf("exit = %d, want 29", r.ExitCode)
	}
}

// tupleTracer records Frame.Tuple contents observed at Act hooks.
type tupleTracer struct {
	got []uint32
}

func (tr *tupleTracer) FnEnter(fr *irexec.Frame)                              {}
func (tr *tupleTracer) FnExit(fr *irexec.Frame, ret *ir.Value, rets []uint32) {}
func (tr *tupleTracer) Act(fr *irexec.Frame, s *irexec.Site, args []uint32, result uint32) {
	if s.V.Op == ir.OpCall {
		tr.got = append(tr.got, fr.Tuple(s.V)...)
	}
}

// Frame.Tuple exposes a call's full return tuple to tracers.
func TestFrameTuple(t *testing.T) {
	m := ir.NewModule("tuple2")
	callee := m.NewFunc("pair", 0x2000)
	callee.NumRet = 2
	cb := callee.NewBlock(0)
	k1 := callee.NewValue(ir.OpConst)
	k1.Const = 8
	cb.Append(k1)
	k2 := callee.NewValue(ir.OpConst)
	k2.Const = 9
	cb.Append(k2)
	cb.Append(callee.NewValue(ir.OpRet, k1, k2))

	f := m.NewFunc("_start", 0x1000)
	b := f.NewBlock(0)
	call := f.NewValue(ir.OpCall)
	call.Callee = callee
	call.NumRet = 2
	b.Append(call)
	zero := konst(f, b, 0)
	ec := f.NewValue(ir.OpCallExt, zero)
	ec.Sym = "exit"
	ec.NumRet = 1
	b.Append(ec)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f

	tr := &tupleTracer{}
	ip, err := irexec.New(m, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip.Tr = tr
	if _, err := ip.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.got) != 2 || tr.got[0] != 8 || tr.got[1] != 9 {
		t.Errorf("observed tuple %v, want [8 9]", tr.got)
	}
}
