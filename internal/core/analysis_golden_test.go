package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/vsa"
)

// analysisDigest runs the pipeline with every static analysis consumer on
// (the VSA stage, type recovery and cold-code recovery) and hashes what
// those analyses decide: the refined fingerprint, the value set of every
// SSA value of the refined module, the oracle- and type-driven optimizer's
// promotions and output IR, and the recompiled instruction stream. It
// also returns the run's work-ledger row (see TestAnalysisGolden).
func analysisDigest(t *testing.T, p progs.Program, prof gen.Profile) (digest, ledger string) {
	t.Helper()
	img, err := gen.Build(p.Src, prof, p.Name)
	if err != nil {
		t.Fatalf("%s/%s: build: %v", p.Name, prof.Name, err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(), core.Options{
		Jobs: 2, Lint: core.LintWarn, VSA: true, Types: true, StaticRecover: true})
	if err != nil {
		t.Fatalf("%s/%s: lift: %v", p.Name, prof.Name, err)
	}
	if err := pl.Refine(); err != nil {
		t.Fatalf("%s/%s: refine: %v", p.Name, prof.Name, err)
	}
	var b strings.Builder
	b.WriteString(fingerprint(pl))
	for _, f := range pl.Mod.Funcs {
		r := vsa.Analyze(f)
		fmt.Fprintf(&b, "vsa %s\n", f.Name)
		for _, v := range f.Params {
			fmt.Fprintf(&b, "%s %s\n", v, r.ValueSetOf(v))
		}
		for _, blk := range f.Blocks {
			for _, v := range blk.Phis {
				fmt.Fprintf(&b, "%s %s\n", v, r.ValueSetOf(v))
			}
			for _, v := range blk.Insts {
				fmt.Fprintf(&b, "%s %s\n", v, r.ValueSetOf(v))
			}
		}
	}
	oracle, oracleCalls := pl.Oracle(), 0
	counted := func(f *ir.Func) opt.AliasOracle { oracleCalls++; return oracle(f) }
	promoted := opt.PipelineWith(pl.Mod, opt.PipelineOpts{Oracle: counted, Typed: pl.TypedInfo()})
	slots := 0
	for _, name := range promoted.FuncNames() {
		fmt.Fprintf(&b, "promoted %s\n", promoted.Frame(name))
		slots += len(promoted.Frame(name).Vars)
	}
	fmt.Fprint(&b, pl.Mod)
	out, err := codegen.Compile(pl.Mod, p.Name+"-rec")
	if err != nil {
		t.Fatalf("%s/%s: recompile: %v", p.Name, prof.Name, err)
	}
	for _, in := range out.Code {
		fmt.Fprintf(&b, "%s\n", in.String())
	}
	sum := sha256.Sum256([]byte(b.String()))

	var steps uint64
	for _, in := range p.Inputs() {
		res, err := machine.Execute(img, in, nil)
		if err != nil {
			t.Fatalf("%s/%s: native run: %v", p.Name, prof.Name, err)
		}
		steps += res.Steps
	}
	res, err := machine.Execute(out, p.Ref, nil)
	if err != nil {
		t.Fatalf("%s/%s: recompiled run: %v", p.Name, prof.Name, err)
	}
	fix := pl.Fixpoints()
	rsValues, symValues := pl.ReplayValues()
	rsHooks, symHooks := pl.ReplayHooks()
	ledger = fmt.Sprintf("steps=%d values=%d/%d hooks=%d/%d fixpoints=%d/%d oracle=%d promoted=%d instrs=%d cycles=%d",
		steps, rsValues, symValues, rsHooks, symHooks, fix.Computed, fix.Reused, oracleCalls, slots, len(out.Code), res.Cycles)
	return hex.EncodeToString(sum[:]), ledger
}

// The static analyses' decisions are pinned byte for byte, like
// TestRefineGolden pins the default pipeline: every value set VSA
// computes, every alias-oracle and typed-partition answer the optimizer
// acts on (through its promotions, output IR and recompiled code), and
// the VSA, typerec and cold-recovery stages' effect on the refined
// output. A representation change to the dataflow engine or to VSA must
// leave every digest unchanged; a deliberate output change regenerates
// the file with
//
//	go test -run TestAnalysisGolden ./internal/core/ -update-golden
//
// and bumps core.PassVersion.
//
// The same runs fill testdata/ledger.txt, the work ledger: per program
// and profile, the tracer's instruction count over the trace inputs, the
// IR values the regsave and symbolize replays evaluated over the same
// inputs (Pipeline.ReplayValues) and the Act calls their tracers'
// compiled actions made (Pipeline.ReplayHooks; the header still names
// the Exec and Phi hooks Act replaced, which fired at the same sites),
// the VSA fixpoints
// the pipeline computed and reused, the optimizer's
// oracle-factory calls, the promoted slots, the recompiled instruction
// count and the recompiled binary's cycles on the ref input. Every
// figure is deterministic, so a change that claims to save analysis work
// shows it as a ledger diff, and one that claims to change nothing else
// shows the other columns unchanged. The update flag rewrites it too.
func TestAnalysisGolden(t *testing.T) {
	var ledger [][2]string
	checkGolden(t, "testdata/analysis_golden.txt", []string{
		"SHA-256 of analysisDigest per corpus program and profile (Options{Jobs: 2,",
		"Lint: LintWarn, VSA: true, Types: true, StaticRecover: true}); see analysis_golden_test.go.",
	}, func(t *testing.T, p progs.Program, prof gen.Profile) string {
		digest, row := analysisDigest(t, p, prof)
		ledger = append(ledger, [2]string{p.Name + " " + prof.Name, row})
		return digest
	})
	matchGolden(t, "testdata/ledger.txt", []string{
		"Work ledger of the TestAnalysisGolden runs: tracer steps over the trace inputs,",
		"IR values and Exec+Phi hook calls of the regsave/symbolize replays, VSA fixpoints",
		"computed/reused, oracle-factory calls, promoted slots, recompiled instructions and",
		"recompiled cycles on the ref input.",
	}, ledger)
}
