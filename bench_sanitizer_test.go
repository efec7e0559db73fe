package wytiwyg_test

import (
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/sanitize"
)

// BenchmarkSanitizerOverhead measures the downstream-application extension:
// the runtime cost of retrofitting stack-bounds checks onto a recompiled
// binary, reported as sanitized/unsanitized cycle ratio. The paper's §1
// motivation is that this hardening is impossible without recovered
// variables; this reports what it costs once they are recovered.
func BenchmarkSanitizerOverhead(b *testing.B) {
	// bzip2 keeps its hot arrays on the stack (workloads whose arrays are
	// globals have no stack accesses to harden); astar would also qualify
	// but its ref run is too slow for the bench budget.
	for _, name := range []string{"bzip2"} {
		b.Run(name, func(b *testing.B) {
			p, ok := progs.ByName(name)
			if !ok {
				b.Fatal("missing workload")
			}
			p = bench.Scaled(p, benchScale)
			img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
			if err != nil {
				b.Fatal(err)
			}

			build := func(sanitized bool) *machine.Result {
				pl, err := core.LiftBinary(img, p.Inputs())
				if err != nil {
					b.Fatal(err)
				}
				if err := pl.Refine(); err != nil {
					b.Fatal(err)
				}
				// Checks go in before optimization (like the example):
				// the optimizer then hoists or folds whatever it can
				// prove, exactly how a compiler-inserted sanitizer works.
				if sanitized {
					if checks := sanitize.Apply(pl.Mod); checks == 0 {
						b.Fatal("sanitizer instrumented nothing")
					}
				}
				out, _, err := pl.Recompile(p.Name + "-san")
				if err != nil {
					b.Fatal(err)
				}
				res, err := machine.Execute(out, p.Ref, nil)
				if err != nil {
					b.Fatal(err)
				}
				return &res
			}

			for i := 0; i < b.N; i++ {
				plain := build(false)
				hard := build(true)
				b.ReportMetric(float64(hard.Cycles)/float64(plain.Cycles), "sanitized-ratio")
			}
		})
	}
}
