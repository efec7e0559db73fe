package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/refcache"
)

// refinedAt runs the full pipeline on one benchmark with the given worker
// count and returns the finished pipeline.
func refinedAt(t *testing.T, p progs.Program, jobs int) *core.Pipeline {
	t.Helper()
	return refinedAtOpts(t, p, core.Options{Jobs: jobs, Lint: core.LintWarn})
}

// refinedAtOpts is refinedAt with full control over the pipeline options
// (worker count, analysis stages, ...).
func refinedAtOpts(t *testing.T, p progs.Program, opts core.Options) *core.Pipeline {
	t.Helper()
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatalf("%s: build: %v", p.Name, err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(), opts)
	if err != nil {
		t.Fatalf("%s: lift: %v", p.Name, err)
	}
	if err := pl.Refine(); err != nil {
		t.Fatalf("%s: refine: %v", p.Name, err)
	}
	return pl
}

// fingerprint renders everything a worker count could plausibly perturb:
// the refined IR, the recovered layout table and the verification report.
func fingerprint(p *core.Pipeline) string {
	var b strings.Builder
	fmt.Fprint(&b, p.Mod)
	for _, name := range p.Recovered.FuncNames() {
		fmt.Fprintf(&b, "%s\n", p.Recovered.Frame(name))
	}
	p.Report.Sort()
	b.WriteString(p.Report.String())
	// The typed layout (when the type-recovery stage ran) is part of the
	// contract: the `wytiwyg types` JSON must be byte-identical too.
	if p.TypeReport != nil {
		raw, err := p.TypeReport.JSON()
		if err != nil {
			fmt.Fprintf(&b, "typereport error: %v\n", err)
		} else {
			b.Write(raw)
		}
		for _, st := range p.TypeStats {
			fmt.Fprintf(&b, "%s slots=%d typed=%d conflicts=%d\n",
				st.Func, st.Slots, st.TypedSlots, st.Conflicts)
		}
	}
	return b.String()
}

// fingerprintFull extends fingerprint with the recompiled instruction
// stream: the refined IR goes through the pipeline's back end
// (Pipeline.Recompile), and every emitted instruction's disassembly is
// appended. The IR is printed first — the optimizer mutates the module in
// place.
func fingerprintFull(t *testing.T, p *core.Pipeline, name string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(fingerprint(p))
	out, _, err := p.Recompile(name + "-rec")
	if err != nil {
		t.Fatalf("%s: recompile: %v", name, err)
	}
	for _, in := range out.Code {
		fmt.Fprintf(&b, "%s\n", in.String())
	}
	return b.String()
}

// The tentpole determinism invariant: over the whole benchmark corpus, a
// single-worker run and a heavily parallel run produce byte-identical IR,
// layouts, reports and recompiled instruction streams, and compute and
// reuse the same number of VSA fixpoints (stage, typerec and oracle).
func TestParallelDeterminism(t *testing.T) {
	corpus := progs.All
	if testing.Short() {
		// The race-enabled CI pass runs in short mode: a few programs are
		// enough to exercise every fork/join path under the race detector.
		corpus = corpus[:3]
	}
	for _, p := range corpus {
		p := bench.Scaled(p, 6)
		run := func(jobs int) string {
			pl := refinedAtOpts(t, p, core.Options{Jobs: jobs, Lint: core.LintWarn, VSA: true, Types: true})
			fp := fingerprintFull(t, pl, p.Name)
			return fp + fmt.Sprintf("fixpoints %+v\n", pl.Fixpoints())
		}
		base, got := run(1), run(8)
		if got != base {
			t.Errorf("%s: -j8 output differs from -j1\n-- j1:\n%.2000s\n-- j8:\n%.2000s",
				p.Name, base, got)
		}
	}
}

// A warm cache must serve a repeat run at a small fraction of the cold
// cost: the program-key hit skips tracing, lifting and every refinement.
func TestWarmCacheSpeedup(t *testing.T) {
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Scaled(progs.All[0], 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Lint: core.LintWarn, Cache: cache}

	start := time.Now()
	cold, err := core.RecoverLayout(img, p.Inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldTime := time.Since(start)
	if cold.FromCache {
		t.Fatal("first run reported a cache hit")
	}

	start = time.Now()
	warm, err := core.RecoverLayout(img, p.Inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmTime := time.Since(start)
	if !warm.FromCache {
		t.Fatal("second run missed the cache")
	}
	if 2*warmTime > coldTime {
		t.Errorf("warm run not at least 2x faster: cold %v, warm %v", coldTime, warmTime)
	}

	// The cached results must be indistinguishable from the recomputed ones.
	for _, name := range cold.Recovered.FuncNames() {
		if got, want := warm.Recovered.Frame(name).String(), cold.Recovered.Frame(name).String(); got != want {
			t.Errorf("frame %s differs: cached %q, computed %q", name, got, want)
		}
	}
	cold.Report.Sort()
	warm.Report.Sort()
	if warm.Report.String() != cold.Report.String() {
		t.Errorf("cached report differs:\n%s\nvs\n%s", warm.Report, cold.Report)
	}
	// A cache hit carries no IR, so there is nothing to recompile.
	if _, _, err := warm.Recompile("warm"); err == nil {
		t.Error("Recompile succeeded on a pipeline served from the cache")
	}
}

// Parallel scaling needs real cores; on small machines only the
// determinism guarantee is testable.
func TestParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a scaling assertion, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	programs := []string{"bzip2", "hmmer", "sjeng"}
	elapsed := func(jobs int) time.Duration {
		start := time.Now()
		for _, name := range programs {
			p, _ := progs.ByName(name)
			refinedAt(t, bench.Scaled(p, 12), jobs)
		}
		return time.Since(start)
	}
	elapsed(1) // warm up code paths before measuring
	seq := elapsed(1)
	par := elapsed(4)
	if float64(seq) < 1.5*float64(par) {
		t.Errorf("-j4 not >= 1.5x faster: -j1 %v, -j4 %v", seq, par)
	}
}

func benchmarkRefine(b *testing.B, jobs int) {
	p := bench.Scaled(progs.All[0], 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: jobs, Lint: core.LintWarn})
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Refine(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefineJ1(b *testing.B) { benchmarkRefine(b, 1) }
func BenchmarkRefineJ4(b *testing.B) { benchmarkRefine(b, 4) }

func BenchmarkRecoverLayoutWarm(b *testing.B) {
	cache, err := refcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p := bench.Scaled(progs.All[0], 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Lint: core.LintWarn, Cache: cache}
	if _, err := core.RecoverLayout(img, p.Inputs(), opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := core.RecoverLayout(img, p.Inputs(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if !pl.FromCache {
			b.Fatal("warm run missed the cache")
		}
	}
}

// BenchmarkReplay measures the two refinement replays of mcf at gcc12-O3 on
// one worker: RefineRegSave (the regsave+varargs replay and its signature
// rewrite) followed by RefineSymbolize's vartrack replay. Lifting, and the
// varargs and stackref refinements between the replays, run outside the
// timer.
func BenchmarkReplay(b *testing.B) {
	p, _ := progs.ByName("mcf")
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := pl.RefineRegSave(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := pl.RefineVarArgs(); err != nil {
			b.Fatal(err)
		}
		if err := pl.RefineStackRef(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := pl.ReplaySymbolize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures the optimizer the back end runs
// (opt.PipelineWith with the pipeline's oracle and typed partitions) over
// h264ref at gcc12-O3, refined with the default options. The optimizer
// rewrites the module in place, so every iteration optimizes a fresh
// refinement, made outside the timer.
func BenchmarkOptimize(b *testing.B) {
	p, _ := progs.ByName("h264ref")
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{Jobs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Refine(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		opt.PipelineWith(pl.Mod, opt.PipelineOpts{Oracle: pl.Oracle(), Typed: pl.TypedInfo()})
	}
}
