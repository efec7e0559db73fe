package vsa_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/vsa"
)

// corpusPipeline lifts one corpus program at gcc12-O3 (small ref input)
// and, when refine is set, runs the refinement sequence on it.
func corpusPipeline(tb testing.TB, name string, refine bool) *core.Pipeline {
	tb.Helper()
	p, ok := progs.ByName(name)
	if !ok {
		tb.Fatalf("no corpus program %q", name)
	}
	p = bench.Scaled(p, 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if refine {
		if err := pl.Refine(); err != nil {
			tb.Fatal(err)
		}
	}
	return pl
}

// eachValue calls fn on every value f owns, in block order.
func eachValue(f *ir.Func, fn func(v *ir.Value)) {
	for _, v := range f.Params {
		fn(v)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			fn(v)
		}
		for _, v := range b.Insts {
			fn(v)
		}
	}
}

func renderVSA(f *ir.Func) string {
	r := vsa.Analyze(f)
	var b strings.Builder
	eachValue(f, func(v *ir.Value) { fmt.Fprintf(&b, "%s %s\n", v, r.ValueSetOf(v)) })
	return b.String()
}

func renderCheck(f *ir.Func) string {
	var rep analysis.Report
	st := vsa.Check(vsa.Analyze(f), &rep)
	return fmt.Sprintf("%+v\n%s", st, rep.String())
}

func renderHeights(f *ir.Func) string {
	facts := analysis.Heights(f)
	var lines []string
	for v, c := range facts.Known {
		lines = append(lines, fmt.Sprintf("%s sp0%+d", v, c))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\n%+v", strings.Join(lines, "\n"), facts.Refs)
}

// prependConst inserts a fresh constant at the head of f's entry block:
// the function's dense layout goes stale, and once refreshed every other
// value's slot shifts by one.
func prependConst(f *ir.Func) {
	c := f.NewValue(ir.OpConst)
	c.Const = 7
	c.Block = f.Entry()
	f.Entry().Insts = append([]*ir.Value{c}, f.Entry().Insts...)
}

// The slot-indexed analyses refresh a stale layout themselves: run right
// after a value was created (before ir.Verify), VSA, the layout verifier
// and the stack-height analysis return exactly what they return on the
// verified function.
func TestAnalysesOnStaleLayout(t *testing.T) {
	analyses := []struct {
		name   string
		render func(*ir.Func) string
		refine bool // whether the analysis runs on refined or lifted IR
	}{
		{"vsa.Analyze", renderVSA, true},
		{"vsa.Check", renderCheck, true},
		{"analysis.Heights", renderHeights, false},
	}
	for _, a := range analyses {
		pl := corpusPipeline(t, "mcf", a.refine)
		for _, f := range pl.Mod.Funcs {
			f.EnsureLayout()
			prependConst(f)
			if f.LayoutOK() {
				t.Fatalf("%s: layout not stale after NewValue", f.Name)
			}
			stale := a.render(f)
			if err := ir.Verify(pl.Mod); err != nil {
				t.Fatal(err)
			}
			if fresh := a.render(f); stale != fresh {
				t.Errorf("%s on %s: stale-layout result differs from verified\n-- stale:\n%.1500s\n-- verified:\n%.1500s",
					a.name, f.Name, stale, fresh)
			}
		}
	}
}

// An oracle is keyed by value, not by slot: one built before the
// optimizer adds values (which reindexes every slot) keeps answering for
// the values it analyzed.
func TestOracleSurvivesReindex(t *testing.T) {
	pl := corpusPipeline(t, "mcf", true)
	for _, f := range pl.Mod.Funcs {
		orc := vsa.NewOracle(f)
		var before []string
		var vals []*ir.Value
		eachValue(f, func(v *ir.Value) {
			vals = append(vals, v)
			before = append(before, orc.Result().ValueSetOf(v).String())
		})
		prependConst(f)
		if err := ir.Verify(pl.Mod); err != nil {
			t.Fatal(err)
		}
		vsa.Analyze(f) // a live oracle must not care about later analyses
		for i, v := range vals {
			if got := orc.Result().ValueSetOf(v).String(); got != before[i] {
				t.Errorf("%s: %s answered %s before the reindex, %s after", f.Name, v, before[i], got)
			}
		}
	}
}
