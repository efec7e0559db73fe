package analysis_test

import (
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/minicc/gen"
)

// boundsSink keeps the benchmarked analyses observable.
var boundsSink analysis.BoundsStats

// BenchmarkCheckBounds runs lint's interval analysis over every function
// of refined astar (gcc12-O3) once per iteration.
func BenchmarkCheckBounds(b *testing.B) {
	p, _ := progs.ByName("astar")
	p = bench.Scaled(p, 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.Refine(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range pl.Mod.Funcs {
			var rep analysis.Report
			boundsSink = analysis.CheckBounds(f, &rep)
		}
	}
}
