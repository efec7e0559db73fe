// Legacy reoptimization: the paper's headline use case (§1, Table 1's GCC
// 4.4 column). A compute-heavy binary produced by a legacy compiler is
// "stuck in time": nobody can rebuild it, so it never benefits from modern
// optimizers. WYTIWYG lifts it, recovers its stack layout dynamically, and
// lets a modern optimizer loose on it — producing a faster binary without
// any source code.
package main

import (
	"bytes"
	"fmt"
	"log"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

func main() {
	// The "legacy vendor binary": hmmer-like DP kernel built by the GCC 4.4
	// profile (frame pointers, weak register allocation, no modern loop
	// transforms).
	prog, _ := progs.ByName("hmmer")
	input := machine.Input{Ints: []int32{12}}
	legacy, err := gen.Build(prog.Src, gen.GCC44O3, "legacy")
	if err != nil {
		log.Fatal(err)
	}
	var legacyOut bytes.Buffer
	base, err := machine.Execute(legacy, input, &legacyOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("legacy binary (GCC 4.4 -O3 profile): %d cycles\n", base.Cycles)

	// What a modern compiler would do WITH source (for context).
	modern, err := gen.Build(prog.Src, gen.GCC12O3, "modern")
	if err != nil {
		log.Fatal(err)
	}
	m, err := machine.Execute(modern, input, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same source, modern compiler:        %d cycles (%.2fx)\n",
		m.Cycles, float64(m.Cycles)/float64(base.Cycles))

	// WYTIWYG: no source needed. Trace with two inputs, refine, reoptimize.
	p, err := core.LiftBinary(legacy, []machine.Input{
		{Ints: []int32{5}}, input,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	recovered, _, err := p.Recompile("recovered")
	if err != nil {
		log.Fatal(err)
	}
	var recOut bytes.Buffer
	r, err := machine.Execute(recovered, input, &recOut)
	if err != nil {
		log.Fatal(err)
	}
	if recOut.String() != legacyOut.String() || r.ExitCode != base.ExitCode {
		log.Fatalf("functionality broken: %q vs %q", recOut.String(), legacyOut.String())
	}
	fmt.Printf("WYTIWYG-recompiled (no source):      %d cycles (%.2fx)\n",
		r.Cycles, float64(r.Cycles)/float64(base.Cycles))
	if r.Cycles < base.Cycles {
		fmt.Printf("=> the legacy binary got %.2fx faster without its source code\n",
			float64(base.Cycles)/float64(r.Cycles))
	} else {
		fmt.Println("=> no speedup on this kernel (see EXPERIMENTS.md for the full suite)")
	}
}
