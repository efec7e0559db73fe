package core_test

import (
	"fmt"
	"strings"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/refcache"
	"wytiwyg/internal/vsa"
)

// vsaRefinedAt runs the VSA-enabled pipeline on one benchmark.
func vsaRefinedAt(t *testing.T, p progs.Program, jobs int) *core.Pipeline {
	t.Helper()
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatalf("%s: build: %v", p.Name, err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(),
		core.Options{Jobs: jobs, Lint: core.LintWarn, VSA: true})
	if err != nil {
		t.Fatalf("%s: lift: %v", p.Name, err)
	}
	if err := pl.Refine(); err != nil {
		t.Fatalf("%s: refine: %v", p.Name, err)
	}
	return pl
}

// vsaFingerprint renders the VSA outcomes a worker count could perturb:
// the stats (minus wall-clock) and the report, on top of the usual IR and
// layout fingerprint.
func vsaFingerprint(p *core.Pipeline) string {
	var b strings.Builder
	b.WriteString(fingerprint(p))
	for _, st := range p.VSAStats {
		fmt.Fprintf(&b, "%s checked=%d cross=%d oof=%d\n",
			st.Func, st.Checked, st.CrossSlot, st.OutOfFrame)
	}
	return b.String()
}

// The VSA stage must obey the pipeline-wide determinism contract: stats
// and findings are byte-identical across worker counts.
func TestVSAStageDeterministic(t *testing.T) {
	p := bench.Scaled(progs.All[0], 6)
	seq := vsaRefinedAt(t, p, 1)
	par := vsaRefinedAt(t, p, 8)
	if len(seq.VSAStats) == 0 {
		t.Fatal("VSA stage produced no stats")
	}
	if a, b := vsaFingerprint(seq), vsaFingerprint(par); a != b {
		t.Errorf("-j1 and -j8 VSA outputs differ\n-- j1:\n%.2000s\n-- j8:\n%.2000s", a, b)
	}
	found := false
	for _, st := range seq.Times {
		if st.Stage == "vsa" {
			found = true
		}
	}
	if !found {
		t.Error("no vsa stage recorded in Times")
	}
}

// On correctly recovered corpus programs the verifier must not claim a
// proven out-of-slot or out-of-frame access: those findings are Errors
// and would be false miscompilation reports.
func TestVSAVerifierCleanOnCorpus(t *testing.T) {
	corpus := progs.All
	if testing.Short() {
		corpus = corpus[:3]
	}
	for _, p := range corpus {
		pl := vsaRefinedAt(t, bench.Scaled(p, 6), 0)
		for _, st := range pl.VSAStats {
			if st.OutOfSlot+st.OutOfFrame != 0 {
				t.Errorf("%s/%s: %d out-of-slot and %d out-of-frame errors on a correct layout\n%s",
					p.Name, st.Func, st.OutOfSlot, st.OutOfFrame, pl.Report)
			}
		}
	}
}

// A warm cache serves a VSA-enabled run from its program key, and the key
// is distinct from the plain run's: enabling VSA must not reuse a report
// computed without its findings.
func TestVSAWarmCacheDistinctKey(t *testing.T) {
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Scaled(progs.All[0], 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Lint: core.LintWarn, Cache: cache, VSA: true}
	cold, err := core.RecoverLayout(img, p.Inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first run reported a cache hit")
	}
	warm, err := core.RecoverLayout(img, p.Inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("second VSA run missed the cache")
	}
	cold.Report.Sort()
	warm.Report.Sort()
	if warm.Report.String() != cold.Report.String() {
		t.Errorf("cached VSA report differs:\n%s\nvs\n%s", warm.Report, cold.Report)
	}
	// Disabling VSA must change the key: the recorded report includes VSA
	// findings the plain pipeline never computes.
	plain, err := core.RecoverLayout(img, p.Inputs(),
		core.Options{Lint: core.LintWarn, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if plain.FromCache {
		t.Error("plain run hit the VSA run's cache entry")
	}
}

// The optimizer's alias oracle answers from the pipeline's shared VSA
// fixpoints, reusing one while its function is unchanged. Optimizing with
// it must give exactly the IR and promotions of an oracle rebuilt from a
// fresh analysis on every call. The lint computes every function's
// fixpoint, and the VSA stage and type recovery reuse it. The pipelines
// run with two workers, so under -race the lint fills the shared store
// concurrently.
func TestSharedOracleMatchesRebuilt(t *testing.T) {
	names := []string{"mcf", "hmmer", "h264ref", "gobmk", "xalancbmk"}
	if testing.Short() {
		names = names[:1]
	}
	opts := core.Options{Jobs: 2, Lint: core.LintWarn, VSA: true, Types: true, StaticRecover: true}
	for _, name := range names {
		p, _ := progs.ByName(name)
		p = bench.Scaled(p, 6)
		shared := refinedAtOpts(t, p, opts)
		rebuilt := refinedAtOpts(t, p, opts)
		n := len(shared.Mod.Funcs)
		if got, want := shared.Fixpoints(), (core.FixpointStats{Computed: n, Reused: 2 * n}); got != want {
			t.Errorf("%s: after Refine %+v, want %+v (the VSA stage and typerec reuse every lint fixpoint)", name, got, want)
		}
		// Every answer the shared oracle hands out must also be the
		// value set a fresh analysis computes right then.
		calls := 0
		sharedOracle := shared.Oracle()
		gotProm := opt.PipelineWith(shared.Mod, opt.PipelineOpts{
			Oracle: func(f *ir.Func) opt.AliasOracle {
				calls++
				orc := sharedOracle(f)
				if diff := diffValueSets(f, orc.(*vsa.Oracle).Result(), vsa.Analyze(f)); diff != "" {
					t.Errorf("%s: oracle call %d on %s: shared fixpoint is stale: %s", name, calls, f.Name, diff)
				}
				return orc
			},
			Typed: shared.TypedInfo(),
		})
		wantProm := opt.PipelineWith(rebuilt.Mod, opt.PipelineOpts{
			Oracle: func(f *ir.Func) opt.AliasOracle { return vsa.NewOracle(f) },
			Typed:  rebuilt.TypedInfo(),
		})
		if got, want := shared.Mod.String(), rebuilt.Mod.String(); got != want {
			t.Errorf("%s: optimized IR differs between the shared and the rebuilt oracle\n-- shared:\n%.2000s\n-- rebuilt:\n%.2000s",
				name, got, want)
		}
		if got, want := renderFrames(gotProm), renderFrames(wantProm); got != want {
			t.Errorf("%s: promotions differ between the shared and the rebuilt oracle\n-- shared:\n%s-- rebuilt:\n%s",
				name, got, want)
		}
		st := shared.Fixpoints()
		if st.Computed+st.Reused != 3*n+calls {
			t.Errorf("%s: %+v fixpoints for %d stage requests and %d oracle calls", name, st, 3*n, calls)
		}
		if st.Reused <= 2*n {
			t.Errorf("%s: the oracle reused no fixpoint over %d calls (%+v)", name, calls, st)
		}
	}
}

// renderFrames prints every frame of a layout in function-name order.
func renderFrames(p *layout.Program) string {
	var b strings.Builder
	for _, name := range p.FuncNames() {
		fmt.Fprintf(&b, "%s\n", p.Frame(name))
	}
	return b.String()
}

// diffValueSets returns the first value of f whose value set differs
// between two fixpoints, or "".
func diffValueSets(f *ir.Func, got, want *vsa.FuncResult) string {
	for _, b := range f.Blocks {
		for _, vs := range [][]*ir.Value{b.Phis, b.Insts} {
			for _, v := range vs {
				if g, w := got.ValueSetOf(v).String(), want.ValueSetOf(v).String(); g != w {
					return fmt.Sprintf("%s is %s, a fresh analysis says %s", v, g, w)
				}
			}
		}
	}
	return ""
}
