// Package wytiwyg_test hosts the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation. The
// benchmarks measure the reproduction's own pipeline (wall-clock per phase)
// and report the paper's metrics (normalized runtimes, accuracy ratios) via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// headline number at reduced scale. cmd/experiments runs the full-scale
// version.
package wytiwyg_test

import (
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
)

// benchScale keeps benchmark iterations affordable (the whole root-package
// bench run must fit go test's default 10-minute budget); cmd/experiments
// uses the full ref inputs.
const benchScale = 2

// benchRow runs the full Table 1 measurement for one (program, config)
// cell and reports the ratios.
func benchRow(b *testing.B, name string, prof gen.Profile) {
	p, ok := progs.ByName(name)
	if !ok {
		b.Fatalf("no benchmark %q", name)
	}
	p = bench.Scaled(p, benchScale)
	var row *bench.Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.RunProgram(p, prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.NoSymRatio(), "nosym-ratio")
	b.ReportMetric(row.SymRatio(), "sym-ratio")
	if !row.SW.Failed {
		b.ReportMetric(row.SWRatio(), "sw-ratio")
	}
}

// --- Table 1: one benchmark per configuration column, sub-benchmarks per
// program row. ---

func BenchmarkTable1(b *testing.B) {
	for _, prof := range bench.Configs {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			for _, p := range progs.All {
				p := p
				b.Run(p.Name, func(b *testing.B) { benchRow(b, p.Name, prof) })
			}
		})
	}
}

// --- Figure 6: runtime normalized to the native GCC 12.2 -O3 binary. ---

func BenchmarkFigure6(b *testing.B) {
	for _, p := range progs.All[:4] { // representative subset per iteration cost
		p := bench.Scaled(p, benchScale)
		b.Run(p.Name, func(b *testing.B) {
			baseImg, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
			if err != nil {
				b.Fatal(err)
			}
			base, err := machine.Execute(baseImg, p.Ref, nil)
			if err != nil {
				b.Fatal(err)
			}
			var row *bench.Row
			for i := 0; i < b.N; i++ {
				row, err = bench.RunProgram(p, gen.GCC44O3)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Native.Cycles)/float64(base.Cycles), "gcc44-native-vs-gcc12")
			b.ReportMetric(float64(row.Sym.Cycles)/float64(base.Cycles), "gcc44-recompiled-vs-gcc12")
		})
	}
}

// --- Figure 7: splitting accuracy. ---

func BenchmarkFigure7(b *testing.B) {
	var agg layout.Accuracy
	for i := 0; i < b.N; i++ {
		agg = layout.Accuracy{}
		for _, p := range progs.All {
			p := bench.Scaled(p, benchScale)
			row, err := bench.RunProgram(p, gen.GCC12O0)
			if err != nil {
				b.Fatal(err)
			}
			agg.Add(row.Accuracy)
		}
	}
	b.ReportMetric(agg.Precision()*100, "precision-%")
	b.ReportMetric(agg.Recall()*100, "recall-%")
	b.ReportMetric(agg.Ratio(layout.Matched)*100, "matched-%")
}

// --- Ablation (§6.2 analysis): which optimizations the symbolized IR
// unlocks. ---

func BenchmarkAblation(b *testing.B) {
	p, _ := progs.ByName("hmmer")
	p = bench.Scaled(p, benchScale)
	var row *bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.Ablation(p, gen.GCC12O0)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := float64(row.Native)
	b.ReportMetric(float64(row.NoSym)/n, "nosym")
	b.ReportMetric(float64(row.SymNoMem)/n, "sym-no-mem")
	b.ReportMetric(float64(row.SymNoLICM)/n, "sym-no-licm")
	b.ReportMetric(float64(row.Full.Cycles)/n, "sym-full")
}

// --- Pipeline phase costs (the reproduction's own performance). ---

func pipelineInputs(b *testing.B) (*core.Pipeline, []machine.Input) {
	p, _ := progs.ByName("bzip2")
	p = bench.Scaled(p, benchScale)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := core.LiftBinary(img, p.Inputs())
	if err != nil {
		b.Fatal(err)
	}
	return pl, p.Inputs()
}

func BenchmarkPhaseLift(b *testing.B) {
	p, _ := progs.ByName("bzip2")
	p = bench.Scaled(p, benchScale)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LiftBinary(img, p.Inputs()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseRefine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl, _ := pipelineInputs(b)
		b.StartTimer()
		if err := pl.Refine(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl, _ := pipelineInputs(b)
		if err := pl.Refine(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		opt.Pipeline(pl.Mod)
	}
}

func BenchmarkPhaseCodegen(b *testing.B) {
	pl, _ := pipelineInputs(b)
	if err := pl.Refine(); err != nil {
		b.Fatal(err)
	}
	opt.Pipeline(pl.Mod)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Compile(pl.Mod, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
