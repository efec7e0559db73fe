package core_test

import (
	"fmt"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/vsa"
)

// Every optimizer pass keeps the refined IR free of proven violations:
// over the corpus at every Table 1 profile, refined once with the default
// options and once with VSA and type recovery, vsa.LintIR reports no
// error after any pass of the optimizer the back end runs. Under -short
// only mcf runs.
func TestPassLintCorpus(t *testing.T) {
	corpus := progs.All
	if testing.Short() {
		mcf, _ := progs.ByName("mcf")
		corpus = []progs.Program{mcf}
	}
	for _, p := range corpus {
		p := bench.Scaled(p, 2)
		for _, prof := range bench.Configs {
			img, err := gen.Build(p.Src, prof, p.Name)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", p.Name, prof.Name, err)
			}
			for _, opts := range []core.Options{{}, {VSA: true, Types: true}} {
				opts.Jobs = 2
				pl, err := core.LiftBinaryOpts(img, p.Inputs(), opts)
				if err != nil {
					t.Fatalf("%s/%s: lift: %v", p.Name, prof.Name, err)
				}
				if err := pl.Refine(); err != nil {
					t.Fatalf("%s/%s: refine: %v", p.Name, prof.Name, err)
				}
				_, err = opt.PipelineWithDebug(pl.Mod,
					opt.PipelineOpts{Oracle: pl.Oracle(), Typed: pl.TypedInfo()},
					func(pass string) error {
						var rep analysis.Report
						vsa.LintIR(pl.Mod, &rep)
						if rep.Errors() > 0 {
							return fmt.Errorf("after pass %s:\n%s", pass, rep.String())
						}
						return nil
					})
				if err != nil {
					t.Errorf("%s/%s vsa=%v types=%v: %v", p.Name, prof.Name, opts.VSA, opts.Types, err)
				}
			}
		}
	}
}
