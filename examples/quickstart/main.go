// Quickstart: lift, symbolize and recompile a small binary, then verify the
// recovered binary behaves identically and inspect the recovered stack
// layout. This walks the whole WYTIWYG pipeline (Figure 4 of the paper) on
// a program tiny enough to read.
package main

import (
	"bytes"
	"fmt"
	"log"

	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/symbolize"
)

const src = `
extern int printf(char *fmt, ...);

int sum(int *v, int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += v[i];
	return s;
}

int main() {
	int data[10];
	int i;
	for (i = 0; i < 10; i++) data[i] = i * i;
	printf("sum=%d\n", sum(data, 10));
	return 0;
}
`

func main() {
	// 1. The "COTS input binary": compiled at -O3 by the gcc12 profile.
	img, err := gen.Build(src, gen.GCC12O3, "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	var nativeOut bytes.Buffer
	native, err := machine.Execute(img, machine.Input{}, &nativeOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input binary: %d instructions, %d cycles, prints %q\n",
		len(img.Code), native.Cycles, nativeOut.String())

	// 2. Trace and lift. In a real deployment the binary would be stripped;
	// the pipeline only uses the symbol table for diagnostics.
	p, err := core.LiftBinary(img, []machine.Input{{}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifted: %d functions recovered from the trace\n", len(p.Rec.Funcs))

	// 3. Refinement lifting: saved registers, variadic calls, stack
	// references, and finally full stack symbolization.
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("refined: the emulated stack is gone; signatures are explicit:")
	for _, f := range p.Mod.Funcs {
		fmt.Printf("  %s: %d parameters (%d recovered from the stack)\n",
			f.Name, len(f.Params), f.StackArgs)
	}

	// 4. Optimize and recompile, then inspect what symbolization unlocked.
	out, _, err := p.Recompile("recovered")
	if err != nil {
		log.Fatal(err)
	}
	rec := symbolize.RecoveredLayout(p.Mod)
	fmt.Println("recovered stack objects (after optimization):")
	for _, name := range rec.FuncNames() {
		if fr := rec.Frame(name); len(fr.Vars) > 0 {
			fmt.Printf("  %s\n", fr)
		}
	}

	// 5. Compare.
	var recOut bytes.Buffer
	res, err := machine.Execute(out, machine.Input{}, &recOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered binary: %d instructions, %d cycles, prints %q\n",
		len(out.Code), res.Cycles, recOut.String())
	if recOut.String() == nativeOut.String() && res.ExitCode == native.ExitCode {
		fmt.Printf("functionality preserved; normalized runtime %.2f\n",
			float64(res.Cycles)/float64(native.Cycles))
	} else {
		log.Fatal("behaviour mismatch!")
	}
}
