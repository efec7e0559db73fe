package opt_test

import (
	"fmt"
	"slices"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
)

// referenceDCE is the map-based iterative DCE the worklist pass replaced:
// rebuild every value's users, delete every pure value without one, and
// repeat until a round deletes nothing.
func referenceDCE(f *ir.Func) int {
	removed := 0
	for {
		uses := make(map[*ir.Value]int)
		for _, b := range f.Blocks {
			for _, list := range [][]*ir.Value{b.Phis, b.Insts} {
				for _, v := range list {
					for _, a := range v.Args {
						uses[a]++
					}
				}
			}
		}
		live := func(v *ir.Value) bool { return opt.HasSideEffects(v) || uses[v] > 0 }
		changed := false
		for _, b := range f.Blocks {
			phis := b.Phis[:0]
			for _, v := range b.Phis {
				if live(v) {
					phis = append(phis, v)
				} else {
					changed = true
					removed++
				}
			}
			b.Phis = phis
			insts := b.Insts[:0]
			for _, v := range b.Insts {
				if live(v) {
					insts = append(insts, v)
				} else {
					changed = true
					removed++
				}
			}
			b.Insts = insts
		}
		if !changed {
			return removed
		}
	}
}

// memberIDs lists the IDs of f's phis and instructions, in block order.
func memberIDs(f *ir.Func) []int {
	var ids []int
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			ids = append(ids, v.ID)
		}
		for _, v := range b.Insts {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// removedIDs lists the IDs in before that f no longer holds.
func removedIDs(before []int, f *ir.Func) []int {
	after := memberIDs(f)
	var out []int
	for _, id := range before {
		if !slices.Contains(after, id) {
			out = append(out, id)
		}
	}
	return out
}

// diffDCE runs referenceDCE on ref and opt.DCE on got, two identical
// modules, function by function, and reports any difference in the
// removed values, the count or the resulting block lists.
func diffDCE(t *testing.T, name string, ref, got *ir.Module) {
	t.Helper()
	if ref.String() != got.String() {
		t.Fatalf("%s: the two copies differ before DCE", name)
	}
	for i, rf := range ref.Funcs {
		gf := got.Funcs[i]
		before := memberIDs(rf)
		wantN, gotN := referenceDCE(rf), opt.DCE(gf)
		if wantN != gotN {
			t.Errorf("%s %s: DCE removed %d values, reference %d", name, rf.Name, gotN, wantN)
		}
		if w, g := removedIDs(before, rf), removedIDs(before, gf); !slices.Equal(w, g) {
			t.Errorf("%s %s: DCE removed %v, reference %v", name, rf.Name, g, w)
		}
		if w, g := rf.String(), gf.String(); w != g {
			t.Errorf("%s %s: block lists differ after DCE:\n%s\nreference:\n%s", name, rf.Name, g, w)
		}
	}
}

// orphan promotes m's scalar slots and then cuts roots out of it so that
// DCE has whole cascades to remove: every other store (in block order) is
// dropped and every return value is replaced by a fresh zero constant at
// the top of the entry block. Every block with predecessors also gets a
// dead chain of two phis and a pair of phis that only feed each other.
// Applied to two identical modules it leaves them identical.
func orphan(m *ir.Module) {
	opt.Mem2RegModule(m)
	stores := 0
	for _, f := range m.Funcs {
		zero := f.NewValue(ir.OpConst)
		zero.Block = f.Entry()
		f.Entry().Insts = append([]*ir.Value{zero}, f.Entry().Insts...)
		for _, b := range f.Blocks {
			if len(b.Preds) > 0 {
				chain := b.AddPhi(f.NewValue(ir.OpPhi))
				tail := b.AddPhi(f.NewValue(ir.OpPhi))
				c1 := b.AddPhi(f.NewValue(ir.OpPhi))
				c2 := b.AddPhi(f.NewValue(ir.OpPhi))
				for range b.Preds {
					chain.AddArg(zero)
					tail.AddArg(chain)
					c1.AddArg(c2)
					c2.AddArg(c1)
				}
			}
			insts := b.Insts[:0]
			for _, v := range b.Insts {
				if v.Op == ir.OpStore {
					stores++
					if stores%2 == 0 {
						continue
					}
				}
				if v.Op == ir.OpRet {
					for i := range v.Args {
						v.Args[i] = zero
					}
				}
				insts = append(insts, v)
			}
			b.Insts = insts
		}
	}
}

// TestDCEMatchesReference compares the worklist DCE with the iterative
// reference on every corpus program at every Table 1 profile after
// Refine, as refined and promoted with roots cut (orphan), and on irgen
// modules. Under -short only mcf runs.
func TestDCEMatchesReference(t *testing.T) {
	corpus := progs.All
	if testing.Short() {
		mcf, _ := progs.ByName("mcf")
		corpus = []progs.Program{mcf}
	}
	for _, p := range corpus {
		p := bench.Scaled(p, 2)
		for _, prof := range bench.Configs {
			img, err := gen.Build(p.Src, prof, p.Name)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", p.Name, prof.Name, err)
			}
			var mods [2]*ir.Module
			for i := range mods {
				pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 2})
				if err != nil {
					t.Fatalf("%s/%s: lift: %v", p.Name, prof.Name, err)
				}
				if err := pl.Refine(); err != nil {
					t.Fatalf("%s/%s: refine: %v", p.Name, prof.Name, err)
				}
				mods[i] = pl.Mod
			}
			name := p.Name + "/" + prof.Name
			diffDCE(t, name, mods[0], mods[1])
			orphan(mods[0])
			orphan(mods[1])
			diffDCE(t, name+" orphaned", mods[0], mods[1])
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		a, b := int32(seed*7-100), int32(50-seed*3)
		name := fmt.Sprintf("irgen seed %d", seed)
		diffDCE(t, name, irgen.Build(seed, a, b), irgen.Build(seed, a, b))
		ref, got := irgen.Build(seed, a, b), irgen.Build(seed, a, b)
		orphan(ref)
		orphan(got)
		diffDCE(t, name+" orphaned", ref, got)
	}
}

// chain builds a one-block function of about 4n values: a dead alloca, a
// live one stored to, n dead adds in a chain, n dead subs that each feed
// only a dead mul, and n live adds feeding the return.
func chain(n int) *ir.Func {
	m := ir.NewModule("chain")
	f := m.NewFunc("f", 0x1000)
	f.NumRet = 1
	b := f.NewBlock(0)
	x := f.NewParam(0, "x")
	b.Append(f.NewValue(ir.OpAlloca)).AllocSize = 4
	slot := b.Append(f.NewValue(ir.OpAlloca))
	slot.AllocSize = 4
	dead, live := x, x
	for i := 0; i < n; i++ {
		dead = b.Append(f.NewValue(ir.OpAdd, dead, x))
		live = b.Append(f.NewValue(ir.OpAdd, live, x))
		b.Append(f.NewValue(ir.OpMul, b.Append(f.NewValue(ir.OpSub, x, x)), x))
	}
	b.Append(f.NewValue(ir.OpStore, slot, live))
	b.Append(f.NewValue(ir.OpRet, live))
	return f
}

// TestDCEAllocsConstant guards the dense passes: DCE and RemoveDeadAllocas
// make the same number of allocations on a function of 40 values as on
// one of 40,000.
func TestDCEAllocsConstant(t *testing.T) {
	allocs := func(n int, pass func(*ir.Func) int) float64 {
		const runs = 4
		fs := make([]*ir.Func, runs+1)
		for i := range fs {
			fs[i] = chain(n)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if pass(fs[i]) == 0 {
				t.Fatalf("n=%d: pass removed nothing", n)
			}
			i++
		})
	}
	for _, pass := range []struct {
		name string
		run  func(*ir.Func) int
	}{{"DCE", opt.DCE}, {"RemoveDeadAllocas", opt.RemoveDeadAllocas}} {
		small, large := allocs(10, pass.run), allocs(10000, pass.run)
		if small != large {
			t.Errorf("%s: %v allocations on a small function, %v on a large one", pass.name, small, large)
		}
	}
}
