package analysis_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/vsa"
)

// Differential testing of the linter over the benchmark suite. Two
// directions, matching the acceptance criteria of the verification stage:
//
//   - Soundness of the Error severity: on every cleanly recovered layout
//     (which irexec executes without fault) the linter must report zero
//     proven violations — no false positives.
//   - Sensitivity: layouts corrupted by seeded mutations (shrink an
//     object, shift an object, corrupt the layout table) must be caught —
//     at least 90% of the seeded mutations produce an Error.

// pipeCache shares one refined pipeline per program between the clean-run
// and mutation tests (refinement re-executes every input several times and
// dominates the test's cost). The mutation test restores every corruption
// it seeds, so the cached pipeline stays clean.
var pipeCache = map[string]*core.Pipeline{}

// refined runs the pipeline through refinement with linting enabled.
func refined(t *testing.T, p progs.Program) *core.Pipeline {
	t.Helper()
	if pl, ok := pipeCache[p.Name]; ok {
		return pl
	}
	img, err := gen.Build(p.Src, gen.GCC12O3, "input")
	if err != nil {
		t.Fatalf("%s: compile: %v", p.Name, err)
	}
	pl, err := core.LiftBinary(img, p.Inputs())
	if err != nil {
		t.Fatalf("%s: lift: %v", p.Name, err)
	}
	pl.Lint = core.LintWarn
	if err := pl.Refine(); err != nil {
		t.Fatalf("%s: refine: %v", p.Name, err)
	}
	pipeCache[p.Name] = pl
	return pl
}

// shortCorpus trims the benchmark list in -short mode (the race-enabled
// CI pass): a few programs exercise every check without blowing the
// package time budget on small machines.
func shortCorpus() []progs.Program {
	if testing.Short() {
		return progs.All[:3]
	}
	return progs.All
}

func TestLintCleanLayoutsNoFalsePositives(t *testing.T) {
	for _, p := range shortCorpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			pl := refined(t, p)
			// The recovered layout must actually execute: irexec runs the
			// symbolized module on every trace input.
			for i, input := range p.Inputs() {
				if _, err := irexec.Run(pl.Mod, input, nil, nil); err != nil {
					t.Fatalf("irexec input %d: %v", i, err)
				}
			}
			if n := pl.Report.Errors(); n != 0 {
				t.Errorf("clean layout produced %d proven violations:\n%s",
					n, pl.Report)
			}
		})
	}
}

// mutation is one seeded layout corruption. When check is set, the
// catching Error must come from that check.
type mutation struct {
	name  string
	check string
	apply func(pl *core.Pipeline, fn string, v *layout.Var, a *ir.Value) (undo func())
}

var mutations = []mutation{
	{
		// Corrupt only the layout table: the frame check must notice the
		// table no longer describes the IR.
		name: "table-shift",
		apply: func(pl *core.Pipeline, fn string, v *layout.Var, a *ir.Value) func() {
			v.Offset += 4
			return func() { v.Offset -= 4 }
		},
	},
	{
		name: "table-shrink",
		apply: func(pl *core.Pipeline, fn string, v *layout.Var, a *ir.Value) func() {
			if v.Size <= 4 {
				return nil
			}
			v.Size -= 4
			return func() { v.Size += 4 }
		},
	},
	{
		// Corrupt table and IR consistently — as if recovery really had
		// undersized the object. The traced references (height facts) or
		// the interval analysis must notice accesses past the new end.
		name: "object-shrink",
		apply: func(pl *core.Pipeline, fn string, v *layout.Var, a *ir.Value) func() {
			if v.Size <= 4 || a == nil {
				return nil
			}
			v.Size -= 4
			a.AllocSize -= 4
			return func() { v.Size += 4; a.AllocSize += 4 }
		},
	},
	{
		// Shift object and table together: references keep their traced
		// offsets, so coverage must break somewhere.
		name: "object-shift",
		apply: func(pl *core.Pipeline, fn string, v *layout.Var, a *ir.Value) func() {
			if a == nil {
				return nil
			}
			v.Offset -= 4
			a.Const -= 4
			return func() { v.Offset += 4; a.Const += 4 }
		},
	},
	{
		// Move one access past its object's end, leaving layout table,
		// objects and traced references intact: only the stack-access
		// check on the VSA fixpoint can see it.
		name:  "access-past-end",
		check: "vsa",
		apply: func(pl *core.Pipeline, fn string, v *layout.Var, a *ir.Value) func() {
			if a == nil {
				return nil
			}
			return movePastEnd(pl.Mod.FuncByName(fn), a)
		},
	},
}

// movePastEnd rewrites the first load or store of f whose address is a or
// a+k (k constant) to address a+AllocSize+k instead, through a new
// constant and add inserted before it, and returns the undo; nil when no
// access has that shape.
func movePastEnd(f *ir.Func, a *ir.Value) func() {
	for _, b := range f.Blocks {
		for i, v := range b.Insts {
			if v.Op != ir.OpLoad && v.Op != ir.OpStore {
				continue
			}
			addr, off := v.Args[0], int32(0)
			if addr.Op == ir.OpAdd && addr.Args[0] == a && addr.Args[1].Op == ir.OpConst {
				off = addr.Args[1].Const
			} else if addr != a {
				continue
			}
			k := f.NewValue(ir.OpConst)
			k.Const = off + int32(a.AllocSize)
			moved := f.NewValue(ir.OpAdd, a, k)
			k.Block, moved.Block = b, b
			b.Insts = slices.Insert(b.Insts, i, k, moved)
			v.Args[0] = moved
			return func() {
				v.Args[0] = addr
				b.Insts = slices.Delete(b.Insts, i, i+2)
			}
		}
	}
	return nil
}

// findAlloca locates the stack object matching a layout entry.
func findAlloca(f *ir.Func, v layout.Var) *ir.Value {
	for _, b := range f.Blocks {
		for _, val := range b.Insts {
			if val.Op == ir.OpAlloca && val.Const == v.Offset && val.AllocSize == v.Size &&
				!strings.HasPrefix(val.Name, "cp_") {
				return val
			}
		}
	}
	return nil
}

func TestLintCatchesSeededMutations(t *testing.T) {
	seeded, caught := 0, 0
	var missed []string
	for _, p := range shortCorpus() {
		pl := refined(t, p)
		for _, fname := range pl.Recovered.FuncNames() {
			frame := pl.Recovered.Frame(fname)
			f := pl.Mod.FuncByName(fname)
			if f == nil {
				continue
			}
			for i := range frame.Vars {
				v := &frame.Vars[i]
				a := findAlloca(f, *v)
				for _, mut := range mutations {
					undo := mut.apply(pl, fname, v, a)
					if undo == nil {
						continue // mutation not applicable to this object
					}
					var rep analysis.Report
					vsa.LintModule(pl.Mod, pl.Recovered, pl.Heights, &rep)
					undo()
					seeded++
					if caughtBy(&rep, mut.check) {
						caught++
					} else {
						missed = append(missed,
							fmt.Sprintf("%s/%s/%s %s", p.Name, fname, v.Name, mut.name))
					}
				}
			}
		}
	}
	if seeded == 0 {
		t.Fatal("no mutations were seeded")
	}
	rate := float64(caught) / float64(seeded)
	t.Logf("caught %d/%d seeded mutations (%.1f%%)", caught, seeded, rate*100)
	if rate < 0.90 {
		t.Errorf("mutation catch rate %.1f%% below 90%%; missed:\n  %s",
			rate*100, strings.Join(missed, "\n  "))
	}
}

// caughtBy reports whether rep has an Error, from check when it is set.
func caughtBy(rep *analysis.Report, check string) bool {
	for _, d := range rep.Diags {
		if d.Severity == analysis.Error && (check == "" || d.Check == check) {
			return true
		}
	}
	return false
}
