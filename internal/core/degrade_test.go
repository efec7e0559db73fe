package core_test

import (
	"bytes"
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

// A program with a function that only runs for large inputs: the pipeline
// can lift it with broad inputs, then refine under a narrower input set
// that never reaches it.
const degradeSrc = `
extern int printf(char *fmt, ...);
extern int input_int(int i);

int rare(int x) {
	int buf[4];
	buf[0] = x;
	buf[1] = x + 1;
	buf[2] = x + 2;
	buf[3] = x + 3;
	return buf[0] + buf[3];
}

int common(int x) {
	return x * 2 + 1;
}

int main() {
	int n = input_int(0);
	int r;
	if (n > 100) {
		r = rare(n);
	} else {
		r = common(n);
	}
	printf("r=%d\n", r);
	return 0;
}
`

// One unliftable function must degrade to a warning and a trap stub, not
// fail the binary: the rest refines normally, the recompiled binary matches
// the original on every refined path, and reaching the degraded function
// traps — the same guarantee the lifter gives untraced paths.
func TestRefineDegradesUnliftableFunction(t *testing.T) {
	img, err := gen.Build(degradeSrc, gen.GCC12O3, "degrade")
	if err != nil {
		t.Fatal(err)
	}
	smallInput := machine.Input{Ints: []int32{5}}
	largeInput := machine.Input{Ints: []int32{200}}

	var nativeOut bytes.Buffer
	native, err := machine.Execute(img, smallInput, &nativeOut)
	if err != nil {
		t.Fatal(err)
	}

	p, err := core.LiftBinaryOpts(img, []machine.Input{smallInput, largeInput},
		core.Options{Jobs: 2, Lint: core.LintWarn})
	if err != nil {
		t.Fatal(err)
	}
	rare := p.Mod.FuncByName("rare")
	if rare == nil {
		t.Fatal("rare not lifted")
	}
	// Narrow the refinement inputs so the sabotaged function never executes
	// during the refinement runs, then corrupt its body in a way the
	// canonicalization pass will choke on (single-argument adds).
	p.Inputs = []machine.Input{smallInput}
	corrupted := 0
	for _, b := range rare.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAdd && len(v.Args) == 2 {
				v.Args = v.Args[:1]
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no adds to corrupt in rare")
	}

	if err := p.Refine(); err != nil {
		t.Fatalf("refine did not isolate the broken function: %v", err)
	}
	if _, ok := p.Degraded["rare"]; !ok {
		t.Fatalf("rare not degraded; Degraded = %v", p.Degraded)
	}
	if len(p.Degraded) != 1 {
		t.Errorf("unexpected extra degradations: %v", p.Degraded)
	}
	warned := false
	for _, d := range p.Report.Diags {
		if d.Check == "pipeline" && d.Severity == analysis.Warn && d.Func == "rare" {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no pipeline warning for rare in report:\n%s", p.Report)
	}
	// The stub is a single trap; the signature survives for callers.
	if len(rare.Blocks) != 1 || len(rare.Blocks[0].Insts) != 1 ||
		rare.Blocks[0].Insts[0].Op != ir.OpTrap {
		t.Errorf("rare not stubbed to a lone trap: %v", rare.Blocks)
	}
	// Everything else refined: the layout carries the other functions.
	if p.Recovered.Frame("main") == nil {
		t.Error("main missing from recovered layout")
	}

	out, _, err := p.Recompile("degrade-rec")
	if err != nil {
		t.Fatal(err)
	}

	// The refined path matches the original binary.
	var recOut bytes.Buffer
	rec, err := machine.Execute(out, smallInput, &recOut)
	if err != nil {
		t.Fatal(err)
	}
	if recOut.String() != nativeOut.String() || rec.ExitCode != native.ExitCode {
		t.Errorf("refined path diverged: got (%q, %d), want (%q, %d)",
			recOut.String(), rec.ExitCode, nativeOut.String(), native.ExitCode)
	}

	// The degraded path traps (exit 254, the trap stub's signature).
	recLarge, err := machine.Execute(out, largeInput, &bytes.Buffer{})
	if err == nil && recLarge.ExitCode != 254 {
		t.Errorf("degraded path did not trap: exit=%d", recLarge.ExitCode)
	}
}

// A function-level stackref failure with no surviving path would still
// surface: refinement runs that reach a degraded function report the trap
// instead of silently producing wrong observations.
func TestDegradedFunctionReachedDuringRefinement(t *testing.T) {
	img, err := gen.Build(degradeSrc, gen.GCC12O3, "degrade2")
	if err != nil {
		t.Fatal(err)
	}
	largeInput := machine.Input{Ints: []int32{200}}
	p, err := core.LiftBinaryOpts(img, []machine.Input{largeInput},
		core.Options{Lint: core.LintWarn})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RefineRegSave(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineVarArgs(); err != nil {
		t.Fatal(err)
	}
	rare := p.Mod.FuncByName("rare")
	for _, b := range rare.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAdd && len(v.Args) == 2 {
				v.Args = v.Args[:1]
			}
		}
	}
	if err := p.RefineStackRef(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Degraded["rare"]; !ok {
		t.Fatalf("rare not recorded as degraded: %v", p.Degraded)
	}
	_, err = p.RefineSymbolize()
	if err == nil {
		t.Fatal("symbolization succeeded although its only input reaches the degraded function")
	}
	if !strings.Contains(err.Error(), "trap") {
		t.Errorf("unexpected error (want a trap report): %v", err)
	}
}
