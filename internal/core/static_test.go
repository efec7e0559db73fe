package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/refcache"
)

// The partial-coverage scenario: a function-pointer dispatch traced on a
// single operation. The other three never execute; two are statically
// recoverable and one (op_leak) leaks a local's address, so its layout can
// never be admitted.
const staticSrc = `
extern int input_int(int i);
extern int printf(char *fmt, ...);

int op_add(int a, int b) { return a + b; }

int op_mul(int a, int b) { return a * b; }

int op_tab(int a, int b) {
	int t[4];
	t[0] = a; t[1] = b; t[2] = a + b; t[3] = a - b;
	return t[0] + t[1] + t[2] + t[3];
}

int *leak;
int op_leak(int a, int b) {
	int x;
	x = a + b;
	leak = &x;
	return *leak + b;
}

int apply(fnptr f, int a, int b) { return f(a, b); }

fnptr ops[4];

int main() {
	int op, a, b, r;
	ops[0] = &op_add;
	ops[1] = &op_mul;
	ops[2] = &op_tab;
	ops[3] = &op_leak;
	op = input_int(0);
	a = input_int(1);
	b = input_int(2);
	r = apply(ops[op & 3], a, b);
	printf("r=%d\n", r);
	return r & 63;
}
`

// staticTraceInput exercises only op_add; staticColdInputs dispatch to the
// three never-traced operations.
var (
	staticTraceInput = machine.Input{Ints: []int32{0, 5, 7}}
	staticColdInputs = []machine.Input{
		{Ints: []int32{1, 5, 7}},
		{Ints: []int32{2, 5, 7}},
		{Ints: []int32{3, 9, 4}},
	}
)

// staticRecompile lifts staticSrc from the single-operation trace and
// recompiles, optionally with static recovery.
func staticRecompile(t *testing.T, jobs int, static bool) (*core.Pipeline, *obj.Image, *obj.Image) {
	t.Helper()
	img, err := gen.Build(staticSrc, gen.GCC12O3, "static-cov")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinaryOpts(img, []machine.Input{staticTraceInput},
		core.Options{Jobs: jobs, Lint: core.LintWarn, StaticRecover: static})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	out, _, err := p.Recompile("static-cov-rec")
	if err != nil {
		t.Fatal(err)
	}
	return p, img, out
}

// runOn executes an image and returns the exit code, output and stub hits.
func runOn(t *testing.T, img *obj.Image, in machine.Input) (int32, string, map[string]uint64) {
	t.Helper()
	var buf bytes.Buffer
	res, err := machine.Execute(img, in, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return res.ExitCode, buf.String(), res.StubHits
}

// The acceptance criteria of the hybrid-coverage story in one test: static
// recovery admits at least half of the cold operations, every admitted one
// computes exactly what the original binary computes (zero unsound
// admissions), the unverifiable one still traps, and the stub-hit rate over
// the untraced inputs strictly drops.
func TestStaticRecoverPartialCoverage(t *testing.T) {
	_, img, plain := staticRecompile(t, 0, false)
	plainTrapped := 0
	for _, in := range staticColdInputs {
		if _, _, stubs := runOn(t, plain, in); len(stubs) > 0 {
			plainTrapped++
		}
	}
	if plainTrapped != len(staticColdInputs) {
		t.Fatalf("without static recovery %d/%d cold inputs trapped, want all",
			plainTrapped, len(staticColdInputs))
	}

	p, _, rec := staticRecompile(t, 0, true)
	admitted := 0
	for _, st := range p.ColdStats {
		if st.Admitted {
			admitted++
		}
	}
	if len(p.ColdStats) == 0 || admitted*2 < len(p.ColdStats) {
		t.Errorf("admitted %d of %d cold candidates, want at least half (stats %+v)",
			admitted, len(p.ColdStats), p.ColdStats)
	}
	if _, degraded := p.Degraded["op_leak"]; !degraded {
		t.Error("op_leak admitted despite its escaping local")
	}

	recTrapped := 0
	for _, in := range staticColdInputs {
		exit, out, stubs := runOn(t, rec, in)
		if len(stubs) > 0 {
			recTrapped++
			if exit != 254 {
				t.Errorf("input %v: stub hit with exit %d, want the trap code 254", in.Ints, exit)
			}
			continue
		}
		// Differential check: an admitted path must match the original.
		nexit, nout, _ := runOn(t, img, in)
		if exit != nexit || out != nout {
			t.Errorf("input %v: recovered exit=%d %q, original exit=%d %q",
				in.Ints, exit, out, nexit, nout)
		}
	}
	if recTrapped >= plainTrapped {
		t.Errorf("stub-hit rate did not drop: %d/%d with static recovery vs %d/%d without",
			recTrapped, len(staticColdInputs), plainTrapped, len(staticColdInputs))
	}
	// The traced path must keep working.
	exit, out, stubs := runOn(t, rec, staticTraceInput)
	nexit, nout, _ := runOn(t, img, staticTraceInput)
	if len(stubs) > 0 || exit != nexit || out != nout {
		t.Errorf("traced input: recovered exit=%d %q stubs=%v, original exit=%d %q",
			exit, out, stubs, nexit, nout)
	}
}

// staticFingerprint extends the pipeline fingerprint with every static
// recovery outcome a worker count could perturb (wall-clock excluded).
func staticFingerprint(p *core.Pipeline, out *obj.Image) string {
	var b strings.Builder
	b.WriteString(fingerprint(p))
	if p.Cold != nil {
		fmt.Fprintf(&b, "seeds=%d dispatch=%v\n", p.Cold.Seeds, p.Cold.Dispatch)
		for _, r := range p.Cold.Rejected {
			fmt.Fprintf(&b, "rejected %s@%#x: %s\n", r.Name, r.Entry, r.Reason)
		}
	}
	for _, st := range p.ColdStats {
		fmt.Fprintf(&b, "cold %s@%#x admitted=%v reason=%q checked=%d cross=%d unbounded=%d\n",
			st.Func, st.Entry, st.Admitted, st.Reason, st.Checked, st.CrossSlot, st.Unbounded)
	}
	for _, in := range out.Code {
		fmt.Fprintf(&b, "%s\n", in.String())
	}
	return b.String()
}

// TestParallelDeterminism, extended to the static recovery stage: a -j1 and
// a -j8 run must agree byte for byte on the IR, layouts, report, cold
// verdicts and the final recompiled instruction stream.
func TestStaticRecoverDeterministic(t *testing.T) {
	p1, _, out1 := staticRecompile(t, 1, true)
	p8, _, out8 := staticRecompile(t, 8, true)
	if len(p1.ColdStats) == 0 {
		t.Fatal("static recovery produced no cold stats")
	}
	if a, b := staticFingerprint(p1, out1), staticFingerprint(p8, out8); a != b {
		t.Errorf("-j1 and -j8 static outputs differ\n-- j1:\n%.2000s\n-- j8:\n%.2000s", a, b)
	}
	found := false
	for _, st := range p1.Times {
		if st.Stage == "coldrec" {
			found = true
		}
	}
	if !found {
		t.Error("no coldrec stage recorded in Times")
	}
	// The corpus must stay deterministic with the stage enabled, even where
	// it finds nothing to recover.
	for _, p := range progs.All[:2] {
		p := bench.Scaled(p, 6)
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		fp := func(jobs int) string {
			pl, err := core.LiftBinaryOpts(img, p.Inputs(),
				core.Options{Jobs: jobs, Lint: core.LintWarn, StaticRecover: true})
			if err != nil {
				t.Fatalf("%s: lift: %v", p.Name, err)
			}
			if err := pl.Refine(); err != nil {
				t.Fatalf("%s: refine: %v", p.Name, err)
			}
			return fingerprint(pl)
		}
		if a, b := fp(1), fp(8); a != b {
			t.Errorf("%s: -j1 and -j8 differ with static recovery", p.Name)
		}
	}
}

// Enabling static recovery must change the program cache key: its layouts
// and report differ from a plain run's.
func TestStaticRecoverDistinctCacheKey(t *testing.T) {
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	img, err := gen.Build(staticSrc, gen.GCC12O3, "static-cov")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []machine.Input{staticTraceInput}
	opts := core.Options{Lint: core.LintWarn, Cache: cache, StaticRecover: true}
	cold, err := core.RecoverLayout(img, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first run reported a cache hit")
	}
	warm, err := core.RecoverLayout(img, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("second static-recovery run missed the cache")
	}
	cold.Report.Sort()
	warm.Report.Sort()
	if warm.Report.String() != cold.Report.String() {
		t.Errorf("cached static report differs:\n%s\nvs\n%s", warm.Report, cold.Report)
	}
	plain, err := core.RecoverLayout(img, inputs, core.Options{Lint: core.LintWarn, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if plain.FromCache {
		t.Error("plain run hit the static-recovery cache entry")
	}
}
