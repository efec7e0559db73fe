// Command wytiwyg drives the recompilation pipeline on a single program:
// compile a mini-C source with a chosen compiler profile, trace it, lift it,
// run the refinement-lifting sequence, optimize, recompile, and compare the
// recovered binary against the original.
//
// Usage:
//
//	wytiwyg -src prog.c [-profile gcc12-O3] [-inputs 3,9] [-emit ir|asm|layout] [-sanitize]
//	wytiwyg -bench hmmer [-profile gcc44-O3] [-j 8] [-timings] [-vsa] [-types] [-static-recover]
//	wytiwyg lint [-src prog.c | -bench hmmer | -all] [-json] [-j 8] [-cache] [-vsa] [-types] [-static-recover]
//	wytiwyg types [-src prog.c | -bench hmmer] [-json] [-truth] [-j 8]
//	wytiwyg serve [-addr unix:/tmp/wytiwyg.sock] [-cache-dir DIR] [-j 8] [-workers 4]
//	wytiwyg submit [-addr ...] -kind lift|lint|recompile [-src prog.c | -bench hmmer] [-json] [-local]
//	wytiwyg submit [-addr ...] -ping | -stats | -shutdown
//
// The main command, lint, types and submit name their program with the
// same flags: exactly one of -src and -bench, plus -profile and -inputs
// (at most 64 inputs). They fill a serve.Job from them, which validates
// (Job.Normalize) and resolves (Job.Build) the program exactly as the
// daemon does.
//
// The serve subcommand runs the pipeline as a long-lived daemon behind a
// local HTTP API (unix socket by default) with a shared on-disk cache;
// submit is its client. `submit -local` runs the identical job
// in-process and prints a byte-identical payload — see internal/serve
// and DESIGN.md §15.
//
// Steps and outputs mirror the paper's Figure 4: the tool reports the trace
// size, recovered functions, refined signatures, recovered stack layout and
// the performance of the recompiled binary. Every run verifies the
// recovered layout statically after symbolization and prints the count of
// findings; -lint fail aborts on a proven violation. The lint subcommand
// runs the pipeline up to symbolization and prints the static
// verification report (internal/analysis) instead of recompiling.
//
// -vsa runs the value-set analysis stage after refinement: it prints the
// per-function counts of the layout verification, and the optimizer gains
// a per-function alias oracle that promotes and forwards address-taken
// stack slots the syntactic escape analysis must leave in memory.
//
// -types runs the type-recovery stage after refinement: every recovered
// frame slot gets a type from a small lattice (integers by width,
// pointers, arrays, structs), inferred from access widths, value-set
// stride facts and cross-call unification, and the optimizer gains a
// typed slot splitter that melts proven struct slots into promotable
// scalars. The types subcommand prints the typed frames themselves;
// -emit-types writes the compiler's declared slot types to a JSON
// sidecar for ground-truth comparison.
//
// -j bounds the refinement worker pool (0, the default, means one worker
// per CPU); every output is byte-identical regardless of the worker count.
// -timings prints the per-stage wall-clock breakdown and how many VSA
// fixpoints were computed and reused. The lint subcommand's -cache
// memoizes its layout and report in a content-addressed on-disk cache so
// repeat runs on unchanged binaries skip recomputation; -cache-dir
// overrides its location ($WYTIWYG_CACHE or the user cache directory by
// default).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/profiling"
	"wytiwyg/internal/sanitize"
	"wytiwyg/internal/serve"
	"wytiwyg/internal/symbolize"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(lintMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "types" {
		os.Exit(typesMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "submit" {
		os.Exit(submitMain(os.Args[2:]))
	}
	pf := addProgramFlags(flag.CommandLine, true)
	emit := flag.String("emit", "", "additionally print: ir, asm, layout")
	sanitizeFlag := flag.Bool("sanitize", false, "retrofit stack-bounds checks onto the recompiled binary")
	lintMode := flag.String("lint", "warn", "what the post-refinement verification does with proven violations: warn, fail")
	emitTypes := flag.String("emit-types", "", "write the compiler's declared slot types (ground truth) to this JSON file")
	jobs := flag.Int("j", 0, "refinement worker pool size (0 = one per CPU)")
	timings := flag.Bool("timings", false, "print the per-stage wall-clock breakdown")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProf()

	if !pf.named() {
		flag.Usage()
		os.Exit(2)
	}
	job, err := pf.job(serve.KindRecompile, *lintMode)
	if err != nil {
		fail("%v", err)
	}
	img, inputs, _, err := job.Build()
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("input binary: %d instructions, profile %s\n", len(img.Code), job.Profile)

	var nativeOut bytes.Buffer
	nat, err := machine.Execute(img, inputs[len(inputs)-1], &nativeOut)
	if err != nil {
		fail("native run: %v", err)
	}
	fmt.Printf("native run: exit=%d cycles=%d\n", nat.ExitCode, nat.Cycles)

	if *emitTypes != "" {
		if err := writeTypedTruth(img, *emitTypes); err != nil {
			fail("emit-types: %v", err)
		}
		fmt.Printf("emit-types: wrote ground truth to %s\n", *emitTypes)
	}

	opts := job.Options()
	opts.Jobs = *jobs
	p, err := core.LiftBinaryOpts(img, inputs, opts)
	if err != nil {
		fail("lift: %v", err)
	}
	fmt.Printf("trace: %d instructions covered, %d functions recovered, %d tail calls\n",
		p.Trace.Covered(), len(p.Rec.Funcs), len(p.Rec.TailCalls))

	if err := p.Refine(); err != nil {
		fail("refinement lifting: %v", err)
	}
	fmt.Printf("refined: emulated stack removed, %d functions symbolized\n", len(p.Mod.Funcs))
	for _, f := range p.Mod.Funcs {
		fmt.Printf("  %-20s %2d params (%d from the stack)\n", f.Name, len(f.Params), f.StackArgs)
	}
	degraded := make([]string, 0, len(p.Degraded))
	for name := range p.Degraded {
		degraded = append(degraded, name)
	}
	sort.Strings(degraded)
	for _, name := range degraded {
		fmt.Printf("degraded: %s replaced by a trap stub (%v)\n", name, p.Degraded[name])
	}
	fmt.Printf("lint: %d error(s), %d warning(s), %d info\n",
		p.Report.Errors(), p.Report.Count(analysis.Warn), p.Report.Count(analysis.Info))
	if job.VSA {
		printVSAStats(p.VSAStats, *timings)
	}
	if job.Types {
		printTypeStats(p, *timings)
	}
	if job.StaticRecover {
		printStaticStats(p, *timings)
	}
	if *timings {
		printTimings(p.Times)
	}
	if *sanitizeFlag {
		checks := sanitize.Apply(p.Mod)
		fmt.Printf("sanitizer: %d stack-bounds checks inserted\n", checks)
	}
	out, _, err := p.Recompile("recovered")
	if err != nil {
		fail("recompile: %v", err)
	}
	if *timings {
		// Deterministic counts, printed once the optimizer's oracle has
		// made its requests; the lint computes every function's fixpoint.
		fp := p.Fixpoints()
		fmt.Printf("vsa fixpoints: %d computed, %d reused\n", fp.Computed, fp.Reused)
	}

	if *emit == "layout" || *emit == "ir" {
		if *emit == "ir" {
			fmt.Println(p.Mod)
		}
		rec := symbolize.RecoveredLayout(p.Mod)
		fmt.Println("recovered stack layouts (post-optimization):")
		for _, name := range rec.FuncNames() {
			fr := rec.Frame(name)
			if len(fr.Vars) > 0 {
				fmt.Printf("  %s\n", fr)
			}
		}
		if img.Truth != nil {
			fmt.Println("compiler ground truth:")
			for _, name := range img.Truth.FuncNames() {
				fr := img.Truth.Frame(name)
				if len(fr.Vars) > 0 && p.Mod.FuncByName(name) != nil {
					fmt.Printf("  %s\n", fr)
				}
			}
		}
	}

	fmt.Printf("recovered binary: %d instructions\n", len(out.Code))
	if *emit == "asm" {
		for i, in := range out.Code {
			fmt.Printf("%6x: %s\n", i*16+0x1000, in.String())
		}
	}

	var recOut bytes.Buffer
	rec, err := machine.Execute(out, inputs[len(inputs)-1], &recOut)
	if err != nil {
		fail("recovered run: %v", err)
	}
	status := "MATCH"
	if recOut.String() != nativeOut.String() || rec.ExitCode != nat.ExitCode {
		status = "MISMATCH"
	}
	fmt.Printf("recovered run: exit=%d cycles=%d  functionality: %s\n", rec.ExitCode, rec.Cycles, status)
	fmt.Printf("normalized runtime: %.3f (recovered / input)\n",
		float64(rec.Cycles)/float64(nat.Cycles))
	printStubRate(out, inputs)
	if status != "MATCH" {
		stopProf()
		os.Exit(1)
	}
}

// printVSAStats summarizes the value-set analysis stage: the total verified
// access count and the two finding classes. The analysis wall time is
// appended only under -timings — the default output must stay byte-identical
// across runs and worker counts (the determinism contract).
func printVSAStats(stats []core.VSAStat, showTime bool) {
	checked, cross, oos, oof := 0, 0, 0, 0
	var elapsed time.Duration
	for _, st := range stats {
		checked += st.Checked
		cross += st.CrossSlot
		oos += st.OutOfSlot
		oof += st.OutOfFrame
		elapsed += st.Elapsed
	}
	fmt.Printf("vsa: %d accesses verified, %d cross-slot warning(s), %d out-of-slot and %d out-of-frame error(s)",
		checked, cross, oos, oof)
	if showTime {
		fmt.Printf(" in %v", elapsed.Round(time.Microsecond))
	}
	fmt.Println()
}

// printTypeStats summarizes the type-recovery stage: typed-slot coverage,
// conflict count, and — when ground-truth types are available — the typed
// precision/recall. The inference wall time appears only under -timings
// (the determinism contract, as with printVSAStats).
func printTypeStats(p *core.Pipeline, showTime bool) {
	typed, total, conflicts := 0, 0, 0
	var elapsed time.Duration
	for _, st := range p.TypeStats {
		typed += st.TypedSlots
		total += st.Slots
		conflicts += st.Conflicts
		elapsed += st.Elapsed
	}
	fmt.Printf("types: %d of %d slot(s) typed, %d conflict(s)", typed, total, conflicts)
	if p.Img.TypedTruth != nil && p.Typed != nil {
		acc := layout.CompareTyped(p.Img.TypedTruth, p.Typed)
		fmt.Printf(", precision %.3f recall %.3f", acc.Precision(), acc.Recall())
	}
	if showTime {
		fmt.Printf(" in %v", elapsed.Round(time.Microsecond))
	}
	fmt.Println()
}

// printStaticStats summarizes the static cold-code recovery stage: the seed
// and candidate counts, each candidate's admission verdict and every
// rejection with its reason. Analysis wall time appears only under -timings
// (the determinism contract, as with printVSAStats).
func printStaticStats(p *core.Pipeline, showTime bool) {
	if p.Cold == nil {
		return
	}
	admitted := 0
	var elapsed time.Duration
	for _, st := range p.ColdStats {
		if st.Admitted {
			admitted++
		}
		elapsed += st.Elapsed
	}
	fmt.Printf("static recovery: %d cold seed(s), %d candidate(s) lifted, %d admitted",
		p.Cold.Seeds, len(p.ColdStats), admitted)
	if showTime {
		fmt.Printf(" in %v", elapsed.Round(time.Microsecond))
	}
	fmt.Println()
	for _, st := range p.ColdStats {
		if st.Admitted {
			fmt.Printf("  admitted %-20s %d frame access(es) verified\n", st.Func, st.Checked)
		} else {
			fmt.Printf("  degraded %-20s %s\n", st.Func, st.Reason)
		}
	}
	for _, r := range p.Cold.Rejected {
		fmt.Printf("  rejected %-20s %s\n", r.Name, r.Reason)
	}
}

// printStubRate reports how much of the validation input set escapes the
// recovered binary's coverage: the fraction of inputs whose run reached a
// trap stub, and which stubbed functions were hit.
func printStubRate(out *obj.Image, inputs []machine.Input) {
	trapped := 0
	hits := make(map[string]uint64)
	for _, in := range inputs {
		r, err := machine.Execute(out, in, io.Discard)
		if err != nil {
			continue
		}
		if len(r.StubHits) > 0 {
			trapped++
		}
		for fn, n := range r.StubHits {
			hits[fn] += n
		}
	}
	fmt.Printf("stub-hit rate: %d/%d validation input(s) reached a trap stub\n", trapped, len(inputs))
	fns := make([]string, 0, len(hits))
	for fn := range hits {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fmt.Printf("  stub hit: %s (%d)\n", fn, hits[fn])
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wytiwyg: "+format+"\n", args...)
	os.Exit(1)
}
