package core_test

import (
	"fmt"
	"strings"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/refcache"
)

// typedRefinedAt runs the type-recovery-enabled pipeline on one benchmark.
func typedRefinedAt(t *testing.T, p progs.Program, jobs int) *core.Pipeline {
	t.Helper()
	return refinedAtOpts(t, p, core.Options{Jobs: jobs, Lint: core.LintWarn, Types: true})
}

// typedFingerprint renders the type-recovery outcomes a worker count could
// perturb: the typed report and per-function stats (minus wall-clock), on
// top of the usual IR and layout fingerprint.
func typedFingerprint(t *testing.T, p *core.Pipeline) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(fingerprint(p))
	raw, err := p.TypeReport.JSON()
	if err != nil {
		t.Fatalf("typed report JSON: %v", err)
	}
	b.Write(raw)
	for _, st := range p.TypeStats {
		fmt.Fprintf(&b, "%s slots=%d typed=%d conflicts=%d\n",
			st.Func, st.Slots, st.TypedSlots, st.Conflicts)
	}
	return b.String()
}

// The type-recovery stage must obey the pipeline-wide determinism
// contract: the typed layout, report and stats are byte-identical across
// worker counts.
func TestTypeStageDeterministic(t *testing.T) {
	p := bench.Scaled(progs.All[0], 6)
	seq := typedRefinedAt(t, p, 1)
	par := typedRefinedAt(t, p, 8)
	if len(seq.TypeStats) == 0 {
		t.Fatal("type-recovery stage produced no stats")
	}
	if a, b := typedFingerprint(t, seq), typedFingerprint(t, par); a != b {
		t.Errorf("-j1 and -j8 typed outputs differ\n-- j1:\n%.2000s\n-- j8:\n%.2000s", a, b)
	}
	found := false
	for _, st := range seq.Times {
		if st.Stage == "typerec" {
			found = true
		}
	}
	if !found {
		t.Error("no typerec stage recorded in Times")
	}
}

// Over the benchmark corpus the inference must hit the accuracy bar
// against the compiler's declared slot types: precision >= 0.9 (claims
// are almost never wrong; the taint demotions keep unattributable
// accesses from poisoning commits into unsound ones).
func TestTypeAccuracyCorpus(t *testing.T) {
	corpus := progs.All
	if testing.Short() {
		corpus = corpus[:3]
	}
	for _, prog := range corpus {
		p := bench.Scaled(prog, 6)
		pl := typedRefinedAt(t, p, 0)
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		if img.TypedTruth == nil {
			t.Fatalf("%s: image carries no type ground truth", p.Name)
		}
		acc := layout.CompareTyped(img.TypedTruth, pl.Typed)
		if acc.Claims == 0 {
			t.Errorf("%s: no typed claims on matching slots", p.Name)
			continue
		}
		if acc.Precision() < 0.9 {
			t.Errorf("%s: typed precision %.3f (%d claims, %d truth slots), want >= 0.9",
				p.Name, acc.Precision(), acc.Claims, acc.TruthSlots)
		}
		t.Logf("%s: precision %.3f recall %.3f (%d claims, %d truth slots)",
			p.Name, acc.Precision(), acc.Recall(), acc.Claims, acc.TruthSlots)
	}
}

// promotesMoreSrc keeps an 8-byte array live as one recovered slot (the
// accesses all derive from one base pointer, so symbolization merges
// them) while every access is at a constant offset — exactly the shape
// mem2reg alone cannot promote (the slot is wider than a register) but
// typed splitting can.
const promotesMoreSrc = `
extern int printf(char *fmt, ...);
extern int input_int(int i);

int work(int n) {
	int pair[2];
	int *p = pair;
	p[0] = n;
	p[1] = n * 3;
	return p[0] + p[1];
}

int main() {
	int n = input_int(0);
	printf("%d\n", work(n));
	return 0;
}
`

// Typed slot splitting must strictly increase the optimizer's promotion
// count on a workload whose multi-field slot is only ever accessed at
// constant offsets.
func TestTypedSplittingPromotesMore(t *testing.T) {
	count := func(pr *layout.Program) int {
		n := 0
		for _, fr := range pr.Frames {
			n += len(fr.Vars)
		}
		return n
	}
	promoted := func(types bool) int {
		img, err := gen.Build(promotesMoreSrc, gen.GCC12O3, "pair")
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.LiftBinaryOpts(img, []machine.Input{{Ints: []int32{5}}},
			core.Options{Lint: core.LintWarn, Types: types})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Refine(); err != nil {
			t.Fatal(err)
		}
		return count(opt.PipelineWith(p.Mod, opt.PipelineOpts{Typed: p.TypedInfo()}))
	}
	base, typed := promoted(false), promoted(true)
	if typed <= base {
		t.Errorf("typed splitting promoted %d slots, baseline %d; want strictly more", typed, base)
	}
}

// A warm cache serves a typed run from its program key, and the key is
// distinct from the plain run's: enabling type recovery must not reuse a
// report computed without its typed-conflict findings.
func TestTypedWarmCacheDistinctKey(t *testing.T) {
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Scaled(progs.All[0], 6)
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Lint: core.LintWarn, Cache: cache, Types: true}
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
		t.Fatal("second typed run missed the cache")
	}
	cold.Report.Sort()
	warm.Report.Sort()
	if warm.Report.String() != cold.Report.String() {
		t.Errorf("cached typed report differs:\n%s\nvs\n%s", warm.Report, cold.Report)
	}
	// Disabling type recovery must change the key: the recorded report
	// includes typed-conflict findings the plain pipeline never computes.
	plain, err := core.RecoverLayout(img, p.Inputs(),
		core.Options{Lint: core.LintWarn, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if plain.FromCache {
		t.Error("plain run hit the typed run's cache entry")
	}
}

// An irreconcilable-width slot must surface as a typed-conflict warning
// in the pipeline report.
func TestTypedConflictFinding(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("clash", 0x1000)
	f.NumRet = 1
	b := f.NewBlock(0)
	m.Entry = f
	a := f.NewValue(ir.OpAlloca)
	a.AllocSize = 4
	a.Name = "x"
	a.Const = -4
	b.Append(a)
	k := f.NewValue(ir.OpConst)
	k.Const = 7
	b.Append(k)
	st4 := f.NewValue(ir.OpStore, a, k)
	st4.Size = 4
	b.Append(st4)
	st1 := f.NewValue(ir.OpStore, a, k)
	st1.Size = 1
	b.Append(st1)
	b.Append(f.NewValue(ir.OpRet, k))

	p := &core.Pipeline{Mod: m, Options: core.Options{Types: true}, Report: &analysis.Report{}}
	if err := p.RefineTypes(); err != nil {
		t.Fatalf("RefineTypes: %v", err)
	}
	found := false
	for _, d := range p.Report.Diags {
		if d.Check == "typed-conflict" && strings.Contains(d.Msg, "slot x") {
			found = true
		}
	}
	if !found {
		t.Errorf("no typed-conflict finding for slot x in report:\n%s", p.Report)
	}
	if len(p.TypeStats) == 0 || p.TypeStats[0].Conflicts == 0 {
		t.Errorf("stats recorded no conflict: %+v", p.TypeStats)
	}
}
