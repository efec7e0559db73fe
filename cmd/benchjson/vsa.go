package main

import (
	"fmt"
	"math"
	"time"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/vsa"
)

// The -vsa mode measures the value-set analysis itself instead of parsing
// benchmark output: per-function analysis wall time on a slice of the
// corpus, and the optimizer's promoted-slot counts with and without the
// alias oracle. The numbers land in the artifact's "vsa" section next to
// the interpreter benchmarks so one file tracks both costs and payoffs.
// Each function's analysis is timed vsaSamples times on the refined
// module, and the min is the estimate, with the max published beside it.

// vsaPrograms is the corpus slice the -vsa mode measures: the pointer- and
// dispatch-heavy programs where the alias oracle has work to do.
var vsaPrograms = []string{"mcf", "astar", "xalancbmk"}

// ptrtableSrc is an extra measured workload outside the paper's corpus: a
// stack pointer table, the pattern a syntactic escape analysis can never
// untangle but the oracle resolves to exact frame slots. With complete
// trace coverage the dynamic pipeline resolves it too (symbolization
// rewrites each traced dereference to its observed slot), so the expected
// delta here is zero — a nonzero delta is the oracle recovering
// promotions that tracing missed, which is exactly what the section is
// recorded to watch.
const ptrtableSrc = `
extern int printf(char *fmt, ...);
extern int input_int(int i);

int main() {
	int rounds = input_int(0);
	int a = 1;
	int b = 2;
	int *tab[2];
	tab[0] = &a;
	tab[1] = &b;
	int s = 0;
	int r;
	for (r = 0; r < rounds; r++) {
		if (r % 2 == 0) {
			s += *tab[0] + r;
		} else {
			s += *tab[1] * 2;
		}
		*tab[0] = s % 97;
		*tab[1] = (s + r) % 89;
	}
	printf("ptrtable checksum=%d\n", s + a + b);
	return (s + a + b) % 251;
}
`

// ptrtable wraps the source as a runnable program.
func ptrtable() progs.Program {
	return progs.Program{
		Name:  "ptrtable",
		Src:   ptrtableSrc,
		Train: machine.Input{Ints: []int32{3}},
		Ref:   machine.Input{Ints: []int32{11}},
	}
}

// vsaScale is the ref-input scale for -vsa runs (small: the analysis cost
// per function is input-independent; only tracing depends on it).
const vsaScale = 4

// vsaSamples is how many times -vsa times each function's analysis.
const vsaSamples = minSamples

// VSAFunc is one function's analysis cost.
type VSAFunc struct {
	Func          string  `json:"func"`            // function name
	AnalysisMs    float64 `json:"analysis_ms"`     // fixpoint wall time, min over the samples
	AnalysisMaxMs float64 `json:"analysis_max_ms"` // fixpoint wall time, max over the samples
	Samples       int     `json:"samples"`         // number of timed analyses
}

// VSASection is one program's VSA measurements.
type VSASection struct {
	Program          string    `json:"program"`           // benchmark name
	Funcs            []VSAFunc `json:"funcs"`             // per-function analysis costs
	PromotedBaseline int       `json:"promoted_baseline"` // slots promoted without the oracle
	PromotedOracle   int       `json:"promoted_oracle"`   // slots promoted with the oracle
}

// vsaSections builds the artifact's "vsa" section.
func vsaSections() ([]VSASection, error) {
	out := make([]VSASection, 0, len(vsaPrograms))
	for _, name := range vsaPrograms {
		p, ok := progs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown vsa program %q", name)
		}
		sec, err := vsaOne(bench.Scaled(p, vsaScale))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, sec)
	}
	sec, err := vsaOne(ptrtable())
	if err != nil {
		return nil, fmt.Errorf("ptrtable: %w", err)
	}
	return append(out, sec), nil
}

// vsaOne lifts one program twice — the modules are mutated by optimization
// — and reports the analysis cost plus both promotion counts.
func vsaOne(p progs.Program) (VSASection, error) {
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		return VSASection{}, fmt.Errorf("build: %w", err)
	}
	withVSA, err := refined(img, p, core.Options{Lint: core.LintWarn, VSA: true})
	if err != nil {
		return VSASection{}, err
	}
	baseline, err := refined(img, p, core.Options{Lint: core.LintOff})
	if err != nil {
		return VSASection{}, err
	}
	sec := VSASection{Program: p.Name}
	// Time the analyses before the optimizer rewrites the module.
	for _, st := range withVSA.VSAStats {
		f := withVSA.Mod.FuncByName(st.Func)
		if f == nil {
			return VSASection{}, fmt.Errorf("vsa stat for unknown function %q", st.Func)
		}
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		for i := 0; i < vsaSamples; i++ {
			d := vsa.Analyze(f).Elapsed
			lo, hi = min(lo, d), max(hi, d)
		}
		sec.Funcs = append(sec.Funcs, VSAFunc{
			Func:          st.Func,
			AnalysisMs:    round2(lo.Seconds() * 1000),
			AnalysisMaxMs: round2(hi.Seconds() * 1000),
			Samples:       vsaSamples,
		})
	}
	sec.PromotedBaseline = countVars(opt.PipelineWith(baseline.Mod, opt.PipelineOpts{}))
	sec.PromotedOracle = countVars(opt.PipelineWith(withVSA.Mod, opt.PipelineOpts{Oracle: withVSA.Oracle()}))
	return sec, nil
}

func refined(img *obj.Image, p progs.Program, o core.Options) (*core.Pipeline, error) {
	pl, err := core.LiftBinaryOpts(img, p.Inputs(), o)
	if err != nil {
		return nil, fmt.Errorf("lift: %w", err)
	}
	if err := pl.Refine(); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	return pl, nil
}

func countVars(pr *layout.Program) int {
	n := 0
	for _, name := range pr.FuncNames() {
		n += len(pr.Frame(name).Vars)
	}
	return n
}
