// Package core drives WYTIWYG's end-to-end recompilation pipeline
// (Figure 4 of the paper): trace the input binary under the provided
// inputs, recover its CFG and functions, lift to IR, and then run the
// refinement-lifting loop — each refinement instrumenting the current IR,
// re-executing the inputs, and transforming the IR with the analysis
// results — until the program is fully symbolized and can be recompiled.
//
// Since the refinement observations are per-input and the refinement
// transformations are per-function, both halves of the loop run over a
// bounded worker pool (Options.Jobs): refinement runs fork one tracer per
// input and join the observations in input order, and the canonicalization,
// symbolization and verification stages process functions concurrently
// with results collected in module function order. The merge discipline
// makes every output — IR, recovered layout, lint report — byte-identical
// regardless of the worker count. Results are additionally memoized in a
// content-addressed cache (Options.Cache, package refcache), so repeating
// a run on an unchanged binary and input set skips the pipeline entirely.
package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/coldrec"
	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/lifter"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/par"
	"wytiwyg/internal/refcache"
	"wytiwyg/internal/regsave"
	"wytiwyg/internal/stackref"
	"wytiwyg/internal/staticsym"
	"wytiwyg/internal/symbolize"
	"wytiwyg/internal/tracer"
	"wytiwyg/internal/typerec"
	"wytiwyg/internal/varargs"
	"wytiwyg/internal/vartrack"
	"wytiwyg/internal/vsa"
)

// LintMode selects what the post-refinement verification stage does with
// its findings. The stage itself always runs.
type LintMode int

// Verification modes: LintWarn, the default, keeps the findings in
// Pipeline.Report; LintFail additionally turns proven violations (Error
// findings) into a pipeline failure.
const (
	LintWarn LintMode = iota
	LintFail
)

// ParseLintMode parses a verification mode name: warn or fail.
func ParseLintMode(s string) (LintMode, error) {
	switch s {
	case "warn":
		return LintWarn, nil
	case "fail":
		return LintFail, nil
	}
	return LintWarn, fmt.Errorf("unknown lint mode %q", s)
}

// Options configures a pipeline run.
type Options struct {
	// Jobs bounds the worker pool used for refinement runs and
	// per-function passes; values < 1 mean one worker per CPU.
	Jobs int
	// Lint selects what the post-refinement verification does with its
	// proven violations.
	Lint LintMode
	// Cache, when non-nil, receives the finished program's layout and
	// report under its program key; RecoverLayout serves them back.
	Cache *refcache.Cache
	// VSA enables the value-set analysis stage after symbolization: it
	// publishes the per-function counts of the layout verification the
	// lint ran on each function's VSA fixpoint, and the optimizer gets an
	// alias oracle answering from those fixpoints.
	VSA bool
	// Types enables the type-recovery stage after symbolization (and after
	// VSA when both are on): every recovered frame slot gets a type from
	// the small lattice in package layout, inferred from access widths,
	// strided-interval facts and cross-call unification. The typed layout
	// and report are kept on the pipeline, and the per-function results
	// drive the optimizer's typed slot splitting.
	Types bool
	// StaticRecover enables the cold-code recovery stage: functions the
	// traces never executed are statically disassembled, lifted alongside
	// the traced code, and admitted with a recovered layout only when VSA
	// proves every frame access safe (otherwise they degrade to trap
	// stubs, like any other untraced path).
	StaticRecover bool
	// Observer, when non-nil, receives a start and a finish event for
	// every pipeline stage. Within one pipeline the events arrive
	// sequentially, in Pipeline.Times order; an observer shared by several
	// concurrently running pipelines (the daemon's) must be goroutine-safe.
	// Events are observability only and never influence pipeline output.
	Observer func(StageEvent)
}

// StageEvent is one pipeline-stage lifecycle notification delivered to
// Options.Observer.
type StageEvent struct {
	// Stage is the stage name as recorded in Pipeline.Times ("trace",
	// "cfg", "funcrec", "coldrec", "lift", "regsave", "varargs",
	// "stackref", "symbolize", "vsa", "typerec").
	Stage string
	// Action is "start" or "finish".
	Action string
}

// ColdStat records one cold candidate's admission outcome.
type ColdStat struct {
	// Func is the function name.
	Func string
	// Entry is the function's entry address.
	Entry uint32
	// Admitted reports whether the function kept its recovered layout.
	Admitted bool
	// Reason explains a rejection (empty when admitted).
	Reason string
	// Elapsed is the admission analysis's wall-clock cost.
	Elapsed time.Duration
	// CheckStats are the layout-verifier counters of the admission run.
	vsa.CheckStats
}

// TypeStat records one function's type-recovery outcome.
type TypeStat struct {
	// Func is the function name.
	Func string
	// Elapsed is the inference's wall-clock cost, excluding unification
	// (a single cross-function pass) and the VSA fixpoint the inference
	// starts from, which the pipeline shares with the VSA stage (whose
	// VSAStat.Elapsed counts it when that stage ran).
	Elapsed time.Duration
	// Slots counts the function's layout slots; TypedSlots those that got
	// a committed type; Conflicts the irreconcilable-evidence events.
	Slots, TypedSlots, Conflicts int
}

// VSAStat records one function's value-set analysis outcome.
type VSAStat struct {
	// Func is the function name.
	Func string
	// Elapsed is the analysis fixpoint's wall-clock cost.
	Elapsed time.Duration
	// CheckStats are the layout-verifier counters of the lint's check of
	// the function.
	vsa.CheckStats
}

// StageTime records one pipeline stage's wall-clock cost.
type StageTime struct {
	Stage   string        // stage name (see StageEvent.Stage)
	Elapsed time.Duration // the stage's wall-clock cost
}

// Pipeline carries the state of one recompilation.
type Pipeline struct {
	Img    *obj.Image      // the binary under recompilation
	Inputs []machine.Input // the trace/refinement input set

	// Options is the run's option set, embedded so that stages and callers
	// use p.Lint, p.Jobs and the rest directly.
	Options
	// FromCache marks a pipeline whose results were served entirely from
	// the cache; the trace/IR fields are nil on such a pipeline.
	FromCache bool

	// Cold is the static discovery result (nil unless StaticRecover).
	Cold *coldrec.Result
	// ColdStats holds the per-candidate admission outcomes in entry order
	// (nil until the admission stage has run).
	ColdStats []ColdStat
	// VSAStats holds the per-function value-set analysis outcomes, in
	// module function order (nil until the VSA stage has run).
	VSAStats []VSAStat
	// TypeStats holds the per-function type-recovery outcomes, in module
	// function order (nil until the typerec stage has run).
	TypeStats []TypeStat
	// Typed is the recovered typed layout — each frame slot with its
	// inferred type (nil unless Options.Types).
	Typed *layout.TypedProgram
	// TypeReport is the rendered typed-frame report, the payload of
	// `wytiwyg types` (nil unless Options.Types).
	TypeReport *typerec.Report
	// typeResults indexes the per-function inference results for the
	// optimizer's typed-info factory.
	typeResults map[*ir.Func]*typerec.FuncResult
	// fix holds the VSA fixpoints shared by the lint, the VSA stage, type
	// recovery and the optimizer's alias oracle.
	fix fixpoints
	// checks holds the layout-verifier counters of each function's lint
	// check, in module function order (nil until symbolization has run);
	// the VSA stage publishes them.
	checks []vsa.CheckStats
	// Report accumulates the verification findings. LiftBinaryOpts and
	// RecoverLayout allocate it; a pipeline built by hand must set it
	// before running a stage.
	Report *analysis.Report
	// Heights holds the per-function stack-height facts captured after the
	// stack-reference refinement — they must be taken before symbolization
	// erases the ESP parameters they are phrased in.
	Heights map[*ir.Func]analysis.HeightFacts

	// Degraded lists functions whose refinement failed and that were
	// replaced by trap stubs instead of failing the binary, keyed by
	// function name with the causing error.
	Degraded map[string]error

	// Times records per-stage wall-clock costs in execution order.
	Times []StageTime

	Trace *tracer.Trace   // merged dynamic trace
	CFG   *tracer.CFG     // recovered control-flow graph
	Rec   *funcrec.Result // recovered function partition
	Mod   *ir.Module      // lifted (then refined) IR

	// RegClasses is the saved-register classification after the first
	// refinement.
	RegClasses regsave.Classes
	// varArgs holds the variadic-call observations of RefineRegSave's
	// replay until RefineVarArgs applies them (nil before RefineRegSave).
	varArgs *varargs.Tracer
	// SPOffsets holds each function's direct stack references after the
	// stack-reference refinement.
	SPOffsets map[*ir.Func]stackref.Offsets
	// VarResult is the raw object-bounds analysis output.
	VarResult *vartrack.Result
	// Recovered is the symbolized stack layout (Figure 7's subject).
	Recovered *layout.Program

	// replayValues and replayHooks count the IR values the interpreter
	// evaluated and the Act hooks it called in the regsave (index
	// 0) and symbolize (index 1) replays, summed over the inputs (see
	// ReplayValues and ReplayHooks).
	replayValues, replayHooks [2]uint64
}

// ReplayValues returns the number of IR values the interpreter evaluated
// in the two refinement replays, summed over the inputs: the regsave
// replay (which also collects the variadic-call observations) and the
// symbolize replay. Both are deterministic; they are zero for replays that
// did not run, such as on a pipeline served from the cache.
func (p *Pipeline) ReplayValues() (regsave, symbolize uint64) {
	return p.replayValues[0], p.replayValues[1]
}

// ReplayHooks returns the number of Act hook calls the two refinement
// replays made, summed over the inputs, in the order of ReplayValues.
// Each replay's tracer acts only where its compiled actions are not
// Skip, so these fall short of the value counts.
func (p *Pipeline) ReplayHooks() (regsave, symbolize uint64) {
	return p.replayHooks[0], p.replayHooks[1]
}

// jobs returns the effective worker count.
func (p *Pipeline) jobs() int { return par.N(p.Jobs) }

// observe delivers one stage event to the configured observer.
func (p *Pipeline) observe(stage, action string) {
	if p.Observer != nil {
		p.Observer(StageEvent{Stage: stage, Action: action})
	}
}

// timed runs one stage, records its wall-clock cost and notifies the
// observer.
func (p *Pipeline) timed(stage string, fn func() error) error {
	p.observe(stage, "start")
	start := time.Now()
	err := fn()
	p.Times = append(p.Times, StageTime{Stage: stage, Elapsed: time.Since(start)})
	p.observe(stage, "finish")
	return err
}

// LiftBinary performs the front half of the pipeline: dynamic tracing, CFG
// merge, function recovery, and lifting to IR. It is LiftBinaryOpts with
// default options.
func LiftBinary(img *obj.Image, inputs []machine.Input) (*Pipeline, error) {
	return LiftBinaryOpts(img, inputs, Options{Jobs: 1})
}

// newPipeline builds an empty pipeline carrying the option set.
func newPipeline(img *obj.Image, inputs []machine.Input, opts Options) *Pipeline {
	return &Pipeline{Img: img, Inputs: inputs, Options: opts, Report: &analysis.Report{}}
}

// LiftBinaryOpts performs the front half of the pipeline with explicit
// options: the per-input traces run over the worker pool and merge in
// input order, so the trace — and everything derived from it — is
// independent of the worker count.
func LiftBinaryOpts(img *obj.Image, inputs []machine.Input, opts Options) (*Pipeline, error) {
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	p := newPipeline(img, inputs, opts)
	err := p.timed("trace", func() error {
		p.Trace = tracer.New(img)
		return p.Trace.RunAll(inputs, p.jobs())
	})
	if err != nil {
		return nil, fmt.Errorf("core: tracing: %w", err)
	}
	if err := p.buildFromTrace(); err != nil {
		return nil, err
	}
	return p, nil
}

// buildFromTrace runs the trace-derived build stages — CFG construction,
// function recovery, optional cold-code discovery, and lifting — on
// p.Trace.
func (p *Pipeline) buildFromTrace() error {
	p.timed("cfg", func() error {
		p.CFG = p.Trace.BuildCFG()
		return nil
	})
	err := p.timed("funcrec", func() error {
		rec, err := funcrec.Recover(p.CFG)
		p.Rec = rec
		return err
	})
	if err != nil {
		return fmt.Errorf("core: function recovery: %w", err)
	}
	if p.StaticRecover {
		_ = p.timed("coldrec", func() error {
			p.Cold = coldrec.Discover(p.Img, p.Trace, p.Rec)
			coldrec.Merge(p.CFG, p.Rec, p.Cold)
			return nil
		})
	}
	err = p.timed("lift", func() error {
		mod, err := lifter.LiftJobs(p.Img, p.CFG, p.Rec, p.jobs())
		if err != nil && p.Cold != nil && len(p.Cold.Cands) > 0 {
			// All-or-nothing safety net: if the merged module does not
			// lift, roll the cold code back, reject every candidate with
			// the cause, and lift the traced-only module.
			coldrec.Unmerge(p.CFG, p.Rec, p.Cold)
			for _, c := range p.Cold.Cands {
				p.Cold.Rejected = append(p.Cold.Rejected, coldrec.Rejection{
					Entry: c.Entry, Name: c.Name,
					Reason: fmt.Sprintf("lifting the merged module failed: %v", err),
				})
			}
			p.Cold.Cands = nil
			sort.Slice(p.Cold.Rejected, func(i, j int) bool {
				return p.Cold.Rejected[i].Entry < p.Cold.Rejected[j].Entry
			})
			mod, err = lifter.LiftJobs(p.Img, p.CFG, p.Rec, p.jobs())
		}
		p.Mod = mod
		return err
	})
	if err != nil {
		return fmt.Errorf("core: lifting: %w", err)
	}
	return nil
}

// coldCands returns the accepted cold candidates, or nil.
func (p *Pipeline) coldCands() []*coldrec.Candidate {
	if p.Cold == nil {
		return nil
	}
	return p.Cold.Cands
}

// replayTracer is a refinement tracer: it observes each input on a
// private Fork, joins the forks back, and compiles its actions into the
// replay's code (Observes, shared by every fork).
type replayTracer interface {
	irexec.Tracer
	irexec.Observer
	Fork() irexec.Tracer
	Join(irexec.Tracer)
}

// runAll executes the current module under every input with a tracer
// attached, discarding program output. Each input runs on a private fork
// of tr; the forks run concurrently over the worker pool, sharing one
// compiled Program of the module built with tr's actions, and join in
// input order, so the merged observations are identical for every worker
// count (including 1). It returns the IR values evaluated and the hooks
// called, summed over the inputs.
func (p *Pipeline) runAll(tr replayTracer) (values, hooks uint64, err error) {
	return p.replay(irexec.NewProgram(p.Mod, tr), tr)
}

// replay is runAll over a given Program of the current module.
func (p *Pipeline) replay(prog *irexec.Program, tr replayTracer) (values, hooks uint64, err error) {
	res := make([]irexec.Result, len(p.Inputs))
	subs, err := par.Map(p.jobs(), len(p.Inputs), func(i int) (irexec.Tracer, error) {
		sub := tr.Fork().(replayTracer)
		ip, err := prog.NewInterp(p.Inputs[i], io.Discard)
		if err != nil {
			return nil, fmt.Errorf("core: refinement run, input %d: %w", i, err)
		}
		ip.Tr = sub
		r, err := ip.Run()
		if err != nil {
			return nil, fmt.Errorf("core: refinement run, input %d: %w", i, err)
		}
		res[i] = r
		return sub, nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i, sub := range subs {
		tr.Join(sub)
		values += res[i].Steps
		hooks += res[i].Hooks
	}
	return values, hooks, nil
}

// RefineRegSave runs the saved-register refinement (§4.1): dynamic
// classification followed by the signature rewrite. The same replay also
// collects the variadic-call observations RefineVarArgs applies (see
// regsaveTracer), so the two refinements share one execution of the
// inputs. It runs once per pipeline: the rewritten module cannot be
// classified again.
func (p *Pipeline) RefineRegSave() error {
	if p.RegClasses != nil {
		return fmt.Errorf("core: regsave: the refinements already ran on this pipeline; " +
			"run them once, in order regsave → varargs → stackref → symbolize")
	}
	tr := newRegsaveTracer(regsave.NewTracer(), varargs.NewTracer())
	n, hooks, err := p.runAll(tr)
	if err != nil {
		return err
	}
	p.replayValues[0], p.replayHooks[0] = n, hooks
	// Cold functions never execute during refinement runs (the replayed
	// inputs are exactly the traced ones), so their register classes come
	// from the static liveness estimate instead of traced evidence.
	for _, c := range p.coldCands() {
		if f := p.Mod.FuncAt(c.Entry); f != nil {
			tr.SeedStatic(f, c.LiveIn)
		}
	}
	p.RegClasses = tr.Classify(p.Mod)
	if err := regsave.Apply(p.Mod, p.RegClasses); err != nil {
		return fmt.Errorf("core: regsave: %w", err)
	}
	p.varArgs = tr.va
	return nil
}

// RefineVarArgs recovers exact signatures for variadic library call sites
// (§5.2) and lifts them to explicit arguments. It applies the observations
// RefineRegSave's replay collected, so it must run after RefineRegSave.
func (p *Pipeline) RefineVarArgs() error {
	if p.varArgs == nil {
		return fmt.Errorf("core: varargs: RefineVarArgs needs the observations of RefineRegSave's replay; " +
			"run the refinements in order regsave → varargs → stackref → symbolize")
	}
	if err := varargs.Apply(p.Mod, p.varArgs); err != nil {
		return fmt.Errorf("core: varargs: %w", err)
	}
	return nil
}

// regsaveTracer observes the saved-register refinement's replay and the
// variadic-call refinement's at once. regsave.Apply rewrites only internal
// calls, extracts, parameters and returns: it never touches an
// OpCallExtRaw value and preserves every executed path, so the variadic
// observations taken before the rewrite are exactly those a separate
// replay after it would take. A site gets varargs' raw-call action where
// varargs acts and regsave's action everywhere else, and varargs rides
// regsave's Act (regsave.Tracer.Rider): regsave sees every site and
// passes varargs the codes from varargs.RawCall up, which it does not
// define, and the Generic ones. The interpreter thus calls regsave's Act
// directly, with no dispatch of its own in between.
type regsaveTracer struct {
	*regsave.Tracer
	va *varargs.Tracer
}

// newRegsaveTracer returns the two refinements' tracers, varargs riding
// regsave's.
func newRegsaveTracer(rs *regsave.Tracer, va *varargs.Tracer) *regsaveTracer {
	rs.Rider = va
	return &regsaveTracer{rs, va}
}

func (t *regsaveTracer) Fork() irexec.Tracer {
	return newRegsaveTracer(t.Tracer.Fork().(*regsave.Tracer), t.va.Fork().(*varargs.Tracer))
}

func (t *regsaveTracer) Join(o irexec.Tracer) {
	ot := o.(*regsaveTracer)
	t.Tracer.Join(ot.Tracer)
	t.va.Join(ot.va)
}

func (t *regsaveTracer) Observes(f *ir.Func) irexec.Actions {
	return bothActions{t.Tracer.Observes(f), t.va.Observes(f)}
}

// bothActions is regsaveTracer's actions: varargs' where it acts,
// regsave's elsewhere.
type bothActions struct{ rs, va irexec.Actions }

func (a bothActions) Exec(v *ir.Value) (irexec.Action, uint32) {
	if act, imm := a.va.Exec(v); act != irexec.Skip {
		return act, imm
	}
	return a.rs.Exec(v)
}

func (a bothActions) Phi(phi, in *ir.Value) (irexec.Action, uint32) { return a.rs.Phi(phi, in) }

// degrade replaces a function whose refinement failed with a trap stub: the
// signature survives (callers keep working) but the body becomes a single
// trap, exactly like the lifter's untraced paths — executing the function
// in the recompiled binary aborts, everything else is unaffected. The
// failure is recorded in Degraded and as a warning.
func (p *Pipeline) degrade(f *ir.Func, cause error) {
	if p.Degraded == nil {
		p.Degraded = make(map[string]error)
	}
	p.Degraded[f.Name] = cause
	f.Blocks = nil
	b := f.NewBlock(f.Addr)
	b.Append(f.NewValue(ir.OpTrap))
	p.Report.Addf("pipeline", analysis.Warn, f.Name, nil,
		"refinement failed (%v); function degraded to a trap stub", cause)
}

// RefineStackRef folds constant stack displacements into canonical
// sp0+offset form (the static part of §4.1), processing functions over the
// worker pool. A function whose canonicalization fails is degraded to a
// trap stub instead of failing the binary; if a later refinement run still
// reaches such a function, that run reports the trap. The stage also
// captures the independent stack-height facts and cross-checks them
// against the displacements just canonicalized.
func (p *Pipeline) RefineStackRef() error {
	offs, funcErrs := stackref.ApplyJobs(p.Mod, p.jobs())
	for _, f := range p.Mod.Funcs {
		if err := funcErrs[f]; err != nil {
			p.degrade(f, err)
			offs[f] = stackref.Analyze(f)
		}
	}
	if err := ir.Verify(p.Mod); err != nil {
		return fmt.Errorf("core: stackref: %w", err)
	}
	p.SPOffsets = offs
	funcs := p.Mod.Funcs
	facts := make([]analysis.HeightFacts, len(funcs))
	reps := make([]analysis.Report, len(funcs))
	par.ForEach(p.jobs(), len(funcs), func(i int) error {
		facts[i] = analysis.Heights(funcs[i])
		analysis.CheckHeights(funcs[i], facts[i], p.SPOffsets[funcs[i]], &reps[i])
		return nil
	})
	p.Heights = make(map[*ir.Func]analysis.HeightFacts, len(funcs))
	for i, f := range funcs {
		p.Heights[f] = facts[i]
		p.Report.Merge(&reps[i])
	}
	return p.lintGate("stackref")
}

// lintGate fails the pipeline when verification proved a violation and the
// mode asks for failure.
func (p *Pipeline) lintGate(stage string) error {
	if p.Lint == LintFail && p.Report.Errors() > 0 {
		p.Report.Sort()
		return fmt.Errorf("core: %s verification found %d proven violation(s):\n%s",
			stage, p.Report.Errors(), p.Report)
	}
	return nil
}

// RefineSymbolize runs the object-bounds refinement (§4.2): the vartrack
// runtime observes every input (forked per input, joined in input order),
// then symbolization replaces the emulated stack with explicit stack
// objects, processing functions over the worker pool within each of its
// phases. It returns the recovered layout.
func (p *Pipeline) RefineSymbolize() (*layout.Program, error) {
	tr := vartrack.NewTracer(p.SPOffsets)
	n, hooks, err := p.runAll(tr)
	if err != nil {
		return nil, err
	}
	p.replayValues[1], p.replayHooks[1] = n, hooks
	p.VarResult = tr.Result()
	p.injectColdVars()
	prog, err := symbolize.ApplyJobs(p.Mod, p.SPOffsets, p.VarResult, p.jobs())
	if err != nil {
		return nil, fmt.Errorf("core: symbolize: %w", err)
	}
	p.Recovered = prog
	p.admitCold()
	analysis.CheckModule(p.Mod, p.Report)
	p.lintFuncs()
	p.Report.Sort()
	if err := p.lintGate("symbolize"); err != nil {
		return nil, err
	}
	return prog, nil
}

// injectColdVars derives stack variables for the cold functions before
// symbolization. The dynamic object-bounds tracer never observed them (no
// input reaches cold code during refinement), so their variables come from
// the static symbolizer's per-function splitter — exactly the conservative
// reconstruction whose safety the admission stage then has to prove.
// Injected IDs continue after the dynamic tracer's (the maximum is
// iteration-order independent, and candidates are processed in entry
// order), keeping the result reproducible.
func (p *Pipeline) injectColdVars() {
	cands := p.coldCands()
	if len(cands) == 0 {
		return
	}
	id := 0
	for _, vars := range p.VarResult.ByFn {
		for _, sv := range vars {
			if sv.ID >= id {
				id = sv.ID + 1
			}
		}
	}
	for _, c := range cands {
		f := p.Mod.FuncAt(c.Entry)
		if f == nil {
			continue
		}
		if _, degraded := p.Degraded[f.Name]; degraded {
			continue
		}
		fo := p.SPOffsets[f]
		if fo == nil {
			continue
		}
		staticsym.BuildFuncVars(p.VarResult, f, fo, &id)
	}
}

// admitCold is the soundness gate for the statically recovered functions:
// each one is abstractly interpreted (over the worker pool; verdicts land
// in candidate entry order) and admitted only when every frame access is
// proven in-bounds and no stack object escapes. The rest degrade to trap
// stubs — with the reason recorded in Degraded and the report — and their
// frames leave the recovered layout.
func (p *Pipeline) admitCold() {
	cands := p.coldCands()
	if len(cands) == 0 {
		return
	}
	stats := make([]ColdStat, len(cands))
	par.ForEach(p.jobs(), len(cands), func(i int) error {
		c := cands[i]
		st := ColdStat{Func: c.Name, Entry: c.Entry}
		f := p.Mod.FuncAt(c.Entry)
		switch {
		case f == nil:
			st.Reason = "function missing after lifting"
		case p.Degraded[f.Name] != nil:
			st.Reason = p.Degraded[f.Name].Error()
		default:
			start := time.Now()
			res := vsa.Admit(p.fix.get(f))
			st.Elapsed = time.Since(start)
			st.Admitted = res.OK
			st.Reason = res.Reason
			st.CheckStats = res.Stats
		}
		stats[i] = st
		return nil
	})
	for i := range stats {
		if stats[i].Admitted {
			continue
		}
		f := p.Mod.FuncAt(cands[i].Entry)
		if f == nil {
			continue
		}
		if _, already := p.Degraded[f.Name]; !already {
			p.degrade(f, fmt.Errorf("static recovery failed: %s", stats[i].Reason))
		}
		delete(p.Recovered.Frames, f.Name)
		// The height facts were captured from the full statically lifted
		// body; the function is a trap stub now, so auditing them against
		// the deleted frame would report spurious coverage errors.
		delete(p.Heights, f)
	}
	p.ColdStats = stats
}

// lintFuncs runs the per-function verification checks over the worker pool
// and merges the findings in module function order, keeping each
// function's layout-verifier counters for the VSA stage. The stack-access
// check runs on the pipeline's shared VSA fixpoints, which the VSA stage,
// type recovery and the alias oracle then reuse.
func (p *Pipeline) lintFuncs() {
	funcs := p.Mod.Funcs
	reps := make([]analysis.Report, len(funcs))
	p.checks = make([]vsa.CheckStats, len(funcs))
	par.ForEach(p.jobs(), len(funcs), func(i int) error {
		f := funcs[i]
		p.checks[i] = vsa.LintFunc(p.fix.get(f), p.Recovered.Frame(f.Name), p.Heights[f], &reps[i])
		return nil
	})
	for i := range reps {
		p.Report.Merge(&reps[i])
	}
}

// RefineVSA runs the value-set analysis stage: it records each function's
// fixpoint cost and the counts of the layout verification (vsa.Check) the
// lint ran on that fixpoint, whose findings are already in the report.
// The fixpoints stay on the pipeline for type recovery and the optimizer's
// alias oracle (see Fixpoints). Stats are stored in module function
// order, so the output is worker-count independent like every other
// stage. The stage runs after RefineSymbolize and is a no-op unless
// Options.VSA was set.
func (p *Pipeline) RefineVSA() error {
	if !p.VSA {
		return nil
	}
	funcs := p.Mod.Funcs
	if len(p.checks) != len(funcs) {
		return fmt.Errorf("core: vsa: RefineVSA publishes the checks of RefineSymbolize's lint; " +
			"run it after the refinements")
	}
	stats := make([]VSAStat, len(funcs))
	for i, f := range funcs {
		stats[i] = VSAStat{Func: f.Name, Elapsed: p.fix.get(f).Elapsed, CheckStats: p.checks[i]}
	}
	p.VSAStats = stats
	return nil
}

// Oracle builds the optimizer's per-function alias-oracle factory from the
// pipeline's VSA setting: non-nil only when the stage is enabled, so
// callers can pass it to opt.PipelineOpts unconditionally. The factory
// answers from the pipeline's shared fixpoints: a function no pass has
// changed since its last analysis is not analyzed again.
func (p *Pipeline) Oracle() func(*ir.Func) opt.AliasOracle {
	if !p.VSA {
		return nil
	}
	return func(f *ir.Func) opt.AliasOracle { return p.fix.get(f).Oracle() }
}

// Recompile is the pipeline's back end (Figure 4's last step): it runs the
// stock optimizer over the module, with the pipeline's own alias oracle
// and typed-slot partition when the VSA and type-recovery stages ran, and
// generates the recovered binary, named name. It returns that image and
// the stack objects mem2reg promoted to registers.
//
// Recompile works on any pipeline that has IR: refined, unrefined (the
// no-symbolization baseline) or symbolized by another pass such as
// staticsym. It fails on a pipeline served from the cache, which has none.
// It records no stage time and fires no observer event. The optimizer
// rewrites p.Mod in place; code generation leaves it unchanged.
func (p *Pipeline) Recompile(name string) (*obj.Image, *layout.Program, error) {
	if p.Mod == nil {
		return nil, nil, fmt.Errorf("core: recompile %s: the pipeline has no IR (served from the cache)", name)
	}
	promoted := opt.PipelineWith(p.Mod, opt.PipelineOpts{Oracle: p.Oracle(), Typed: p.TypedInfo()})
	img, err := codegen.Compile(p.Mod, name)
	if err != nil {
		return nil, nil, err
	}
	return img, promoted, nil
}

// Refine runs the complete refinement-lifting sequence on a lifted module:
// regsave → varargs → stackref → symbolize → [vsa] → [typerec]. On success,
// the recovered layout and verification report are recorded in the cache
// under the binary's program key, so an identical future run can skip the
// pipeline (see RecoverLayout). The refinements rewrite the module in
// place, so Refine runs once per pipeline; a second call is a stage-order
// error.
func (p *Pipeline) Refine() error {
	if err := p.timed("regsave", p.RefineRegSave); err != nil {
		return err
	}
	if err := p.timed("varargs", p.RefineVarArgs); err != nil {
		return err
	}
	if err := p.timed("stackref", p.RefineStackRef); err != nil {
		return err
	}
	if err := p.timed("symbolize", func() error {
		_, err := p.RefineSymbolize()
		return err
	}); err != nil {
		return err
	}
	if p.VSA {
		if err := p.timed("vsa", p.RefineVSA); err != nil {
			return err
		}
	}
	if p.Types {
		if err := p.timed("typerec", p.RefineTypes); err != nil {
			return err
		}
	}
	p.recordProgram()
	return nil
}

// recordProgram memoizes the finished pipeline's layout and report under
// the binary's program key.
func (p *Pipeline) recordProgram() {
	if p.Cache != nil && p.Recovered != nil {
		p.Cache.PutProgram(p.programKey(), refcache.ProgramFromLayout(p.Recovered, p.Report))
	}
}
