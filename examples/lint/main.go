// Lint: run the static verification stage on a recovered program and see
// how it reacts to a corrupted layout. The linter (vsa.LintModule over the
// checks of internal/analysis) is the static gate over WYTIWYG's dynamic
// recovery: it re-derives stack heights by abstract interpretation, proves
// stack accesses stay inside their recovered objects on the value-set
// analysis's fixpoint, and cross-checks the layout table against the
// symbolized IR — so an unsound recovery is caught before codegen rather
// than as a crash in a recompiled binary.
package main

import (
	"fmt"
	"log"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/vsa"
)

const src = `
extern int printf(char *fmt, ...);

int dot(int *a, int *b, int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += a[i] * b[i];
	return s;
}

int main() {
	int x[4];
	int y[4];
	int i;
	for (i = 0; i < 4; i++) { x[i] = i + 1; y[i] = 5 - i; }
	printf("dot=%d\n", dot(x, y, 4));
	return 0;
}
`

func main() {
	img, err := gen.Build(src, gen.GCC12O3, "lintdemo")
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.LiftBinary(img, []machine.Input{{}})
	if err != nil {
		log.Fatal(err)
	}

	// Refine: every refinement's output is audited and the findings
	// accumulate in p.Report.
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean recovery: %d error(s), %d warning(s), %d info finding(s)\n",
		p.Report.Errors(), p.Report.Count(analysis.Warn), p.Report.Count(analysis.Info))

	// Now corrupt the recovery the way a buggy tracer would: mis-record
	// one variable's frame offset in the layout table. The table no
	// longer describes the symbolized IR, and the frame check proves it.
	frame := p.Recovered.Frame("main")
	if frame == nil || len(frame.Vars) == 0 {
		log.Fatal("no recovered frame for main")
	}
	v := &frame.Vars[0]
	v.Offset += 4
	fmt.Printf("\ncorrupting %s: shifting %q to offset %d in the layout table\n",
		frame.Func, v.Name, v.Offset)
	var rep analysis.Report
	vsa.LintModule(p.Mod, p.Recovered, p.Heights, &rep)
	for _, d := range rep.Diags {
		if d.Severity == analysis.Error {
			fmt.Println(d)
		}
	}
	if rep.Errors() == 0 {
		log.Fatal("linter missed the seeded corruption")
	}
}
