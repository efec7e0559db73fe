package irexec_test

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/stackref"
	"wytiwyg/internal/vartrack"
)

// resultTracer is a refinement tracer the action-path differential runs:
// it acts, compiles its actions, and renders what it recorded.
type resultTracer interface {
	irexec.Tracer
	irexec.Observer
	render(mod *ir.Module) string
}

// render prints regsave's classes of every function in module order and
// varargs' counts by call site.
func (t regsaveVarargs) render(mod *ir.Module) string {
	var b strings.Builder
	cls := t.Classify(mod)
	for _, f := range mod.Funcs {
		fmt.Fprintf(&b, "%s:", f.Name)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			fmt.Fprintf(&b, " %v", cls[f][r])
		}
		b.WriteByte('\n')
	}
	var counts []string
	for v, n := range t.va.Counts {
		counts = append(counts, fmt.Sprintf("v%d %s: %d args\n", v.ID, v.Sym, n))
	}
	slices.Sort(counts)
	b.WriteString(strings.Join(counts, ""))
	return b.String()
}

// vartrackResult is the vartrack runtime with its result rendered.
type vartrackResult struct{ *vartrack.Tracer }

// newVartrack returns a vartrack runtime over mod's direct references as
// stackref analyzes them.
func newVartrack(mod *ir.Module) vartrackResult {
	offs := make(map[*ir.Func]stackref.Offsets)
	for _, f := range mod.Funcs {
		offs[f] = stackref.Analyze(f)
	}
	return vartrackResult{vartrack.NewTracer(offs)}
}

// render prints the result completely: each function's variables in
// allocation order with their base pointers, the argument slots, and the
// linked pairs in order.
func (t vartrackResult) render(mod *ir.Module) string {
	res := t.Result()
	var b strings.Builder
	base := make(map[*vartrack.StackVar]*ir.Value, len(res.Vars))
	for v, sv := range res.Vars {
		base[sv] = v
	}
	fmt.Fprintf(&b, "%d vars\n", len(res.Vars))
	for _, f := range mod.Funcs {
		for _, sv := range res.ByFn[f] {
			fmt.Fprintf(&b, "%s v%d: %s align=%d\n", f.Name, base[sv].ID, sv, sv.Align)
		}
		var idx []int
		for i := range res.ArgSlots[f] {
			idx = append(idx, i)
		}
		if len(idx) > 0 {
			slices.Sort(idx)
			fmt.Fprintf(&b, "%s args: %v\n", f.Name, idx)
		}
	}
	for _, l := range res.Linked {
		fmt.Fprintf(&b, "link %s %s\n", l[0], l[1])
	}
	return b.String()
}

// diffTracers is the action-path differential: it runs every input of
// mod, in order, through one tracer made by mk, three ways, and requires
// the same outcomes and the same rendered results. The three are the
// compiled interpreter under the tracer's compiled actions, the compiled
// interpreter with the Generic action everywhere (the tracer working out
// each action from the instruction as it runs), and the reference
// tree-walker under the compiled actions. budget is the step budget of
// every run (0: the default).
func diffTracers(t *testing.T, name string, mod *ir.Module, mk func() resultTracer, inputs []machine.Input, budget uint64) {
	t.Helper()
	ways := []string{"actions", "generic", "tree-walker"}
	got := make([]string, len(ways))
	for i, way := range ways {
		tr := mk()
		var prog *irexec.Program
		switch way {
		case "actions":
			prog = irexec.NewProgram(mod, tr)
		case "generic":
			prog = irexec.NewProgram(mod, nil)
		}
		var b strings.Builder
		for _, in := range inputs {
			var err error
			if prog == nil {
				refBudget := budget
				if refBudget == 0 {
					refBudget = 4_000_000_000
				}
				_, _, _, _, _, err = irexec.RunReference(mod, in, io.Discard, tr, tr, refBudget)
			} else {
				var ip *irexec.Interp
				if ip, err = prog.NewInterp(in, io.Discard); err == nil {
					ip.Tr, ip.MaxSteps = tr, budget
					_, err = ip.Run()
				}
			}
			fmt.Fprintf(&b, "err=%q\n", errString(err))
		}
		got[i] = b.String() + tr.render(mod)
	}
	for i := 1; i < len(ways); i++ {
		if got[i] != got[0] {
			t.Errorf("%s: the tracer's results under %s differ from those under %s:\n%s\nwant\n%s",
				name, ways[i], ways[0], got[i], got[0])
		}
	}
}

// diffBothTracers runs the action-path differential for both refinement
// replays' tracers on mod: regsave with varargs, and vartrack over the
// direct references stackref finds.
func diffBothTracers(t *testing.T, name string, mod *ir.Module, inputs []machine.Input, budget uint64) {
	t.Helper()
	diffTracers(t, name+", regsave+varargs", mod, func() resultTracer { return newRegsaveVarargs() }, inputs, budget)
	diffTracers(t, name+", vartrack", mod, func() resultTracer { return newVartrack(mod) }, inputs, budget)
}
