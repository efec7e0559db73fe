package core_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/regsave"
	"wytiwyg/internal/vartrack"
)

// TestReplayFilterSound runs both refinement replays of every corpus
// program under all four profiles twice, once with the replay tracer's
// actions compiled in and once with the Generic action at every
// instruction (the tracer working each action out as it runs), and
// requires identical results: regsave's classes and varargs' counts,
// and vartrack's variables (IDs, owners, offsets, bounds, alignment),
// per-function variable order, linked pairs in order, and argument
// slots. The filtered replays must also call fewer hooks. Inputs and
// scale are those of the interpreter's hook-stream differential: both
// inputs, the ref input scaled to 6. Under -short only mcf runs.
func TestReplayFilterSound(t *testing.T) {
	for _, p := range progs.All {
		if testing.Short() && p.Name != "mcf" {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, prof := range gen.Profiles {
				checkFilterSound(t, bench.Scaled(p, 6), prof)
			}
		})
	}
}

func checkFilterSound(t *testing.T, p progs.Program, prof gen.Profile) {
	name := p.Name + "/" + prof.Name
	img, err := gen.Build(p.Src, prof, p.Name)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 1})
	if err != nil {
		t.Fatalf("%s: lift: %v", name, err)
	}

	allCls, allCounts, allHooks, err := pl.ReplayRegSaveResults(false)
	if err != nil {
		t.Fatalf("%s: regsave replay: %v", name, err)
	}
	cls, counts, hooks, err := pl.ReplayRegSaveResults(true)
	if err != nil {
		t.Fatalf("%s: filtered regsave replay: %v", name, err)
	}
	if got, want := renderClasses(pl.Mod, cls), renderClasses(pl.Mod, allCls); got != want {
		t.Errorf("%s: regsave classes differ under the filter:\n%s\nwant\n%s", name, got, want)
	}
	if !maps.Equal(counts, allCounts) {
		t.Errorf("%s: varargs counts differ under the filter: %v, want %v", name, counts, allCounts)
	}
	if hooks >= allHooks {
		t.Errorf("%s: the filtered regsave replay called %d hooks, unfiltered %d", name, hooks, allHooks)
	}

	if err := pl.RefineRegSave(); err != nil {
		t.Fatalf("%s: regsave: %v", name, err)
	}
	if err := pl.RefineVarArgs(); err != nil {
		t.Fatalf("%s: varargs: %v", name, err)
	}
	if err := pl.RefineStackRef(); err != nil {
		t.Fatalf("%s: stackref: %v", name, err)
	}
	allRes, allHooks, err := pl.ReplaySymbolizeResult(false)
	if err != nil {
		t.Fatalf("%s: symbolize replay: %v", name, err)
	}
	res, hooks, err := pl.ReplaySymbolizeResult(true)
	if err != nil {
		t.Fatalf("%s: filtered symbolize replay: %v", name, err)
	}
	if got, want := renderVars(pl.Mod, res), renderVars(pl.Mod, allRes); got != want {
		t.Errorf("%s: vartrack results differ under the filter:\n%s\nwant\n%s", name, got, want)
	}
	if hooks >= allHooks {
		t.Errorf("%s: the filtered symbolize replay called %d hooks, unfiltered %d", name, hooks, allHooks)
	}
}

// renderClasses prints every function's register classes in module order.
func renderClasses(mod *ir.Module, cls regsave.Classes) string {
	var b strings.Builder
	for _, f := range mod.Funcs {
		fmt.Fprintf(&b, "%s:", f.Name)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			fmt.Fprintf(&b, " %v", cls[f][r])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderVars prints a vartrack result completely: each function's
// variables in allocation order with their base pointers, the linked
// pairs in order, and the argument slots.
func renderVars(mod *ir.Module, res *vartrack.Result) string {
	var b strings.Builder
	base := make(map[*vartrack.StackVar]*ir.Value, len(res.Vars))
	for v, sv := range res.Vars {
		base[sv] = v
	}
	fmt.Fprintf(&b, "%d vars\n", len(res.Vars))
	for _, f := range mod.Funcs {
		for _, sv := range res.ByFn[f] {
			fmt.Fprintf(&b, "%s v%d: %s fn=%s align=%d\n", f.Name, base[sv].ID, sv, sv.Fn.Name, sv.Align)
		}
		if slots := res.ArgSlots[f]; len(slots) > 0 {
			var idx []int
			for i := range slots {
				idx = append(idx, i)
			}
			slices.Sort(idx)
			fmt.Fprintf(&b, "%s args: %v\n", f.Name, idx)
		}
	}
	for _, l := range res.Linked {
		fmt.Fprintf(&b, "link %s %s\n", l[0], l[1])
	}
	return b.String()
}
