package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/symbolize"
)

// size fixes one program's train and ref inputs. bench.Scaled replaces
// only the ref input, and the corpus defaults (sized for Table 1) let
// sjeng, astar and h264ref take over 90% of a pass, so both inputs are
// set here, each with its reason.
type size struct {
	prog       string
	train, ref int32
	why        string
}

// corpusSizes keeps every program of a corpus-replay pass between about
// 20 and 400 ms per profile on a 2-CPU x86 box.
var corpusSizes = []size{
	{"bzip2", 2, 5, "128 bytes per unit; the default 6/26 costs 0.9 s per profile"},
	{"gcc", 4, 18, "default: about 0.07 s per profile"},
	{"mcf", 8, 26, "default: about 0.08 s per profile"},
	{"gobmk", 3, 8, "the default 4/12 costs 0.2 s per profile"},
	{"hmmer", 4, 12, "the default 6/34 costs 0.65 s per profile"},
	{"sjeng", 1, 3, "search depth 3 on both; depth 5 (ref 9) costs 20 s per profile"},
	{"libquantum", 2, 10, "4 sweeps per unit; the default 6/40 costs 0.4 s per profile"},
	{"h264ref", 0, 1, "2 macroblocks; the default 3/12 costs 5 s per profile"},
	{"astar", 0, 1, "one A* query; the default 7/19 costs 18 s per profile"},
	{"xalancbmk", 4, 14, "default: about 0.04 s per profile"},
}

// heavySizes shrink the traces further so that tracing plus the replays
// stay near a third of an analysis-heavy pass; VSA, typerec and the
// optimizer's alias oracle do the rest.
var heavySizes = []size{
	{"h264ref", 0, 1, "the VSA, typerec and oracle cost does not depend on the input"},
	{"hmmer", 2, 6, "smaller matrix fill; the analyses still see every function"},
	{"mcf", 4, 12, "fewer relaxation rounds"},
	{"gobmk", 2, 4, "fewer moves on a 7x7 board"},
	{"xalancbmk", 2, 6, "fewer documents"},
}

// coverageSrc is the partial-coverage dispatch program of
// examples/coverage, kept here as input data: traced on op 0 only, its
// cold ops 1 and 2 run only if cold-code recovery admits them, and op 3
// leaks a local address and must stay a trap stub.
const coverageSrc = `
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

// batchProg is one recompile of a batch workload.
type batchProg struct {
	name   string
	src    string
	prof   gen.Profile
	inputs []machine.Input // trace inputs; the last is the ref input
	// cold are extra validation inputs that reach only statically
	// recovered code.
	cold []machine.Input
}

func (b batchProg) ref() machine.Input { return b.inputs[len(b.inputs)-1] }

// batch recompiles a fixed program list per pass, in an order drawn from
// the seed, the way serve.Runner handles a recompile job.
type batch struct {
	progs []batchProg
	opts  core.Options
	rng   *rand.Rand
}

func sized(s size, prof gen.Profile) batchProg {
	p, ok := progs.ByName(s.prog)
	if !ok {
		panic("pipebench: unknown corpus program " + s.prog)
	}
	return batchProg{name: s.prog + "/" + prof.Name, src: p.Src, prof: prof,
		inputs: []machine.Input{{Ints: []int32{s.train}}, {Ints: []int32{s.ref}}}}
}

// newCorpusReplay is Table 1's path: every corpus program at gcc12-O3 and
// gcc44-O3 with default options.
func newCorpusReplay(seed int64) (workload, error) {
	b := &batch{rng: rand.New(rand.NewSource(seed)),
		opts: core.Options{Jobs: workers, Lint: core.LintWarn}}
	for _, s := range corpusSizes {
		for _, prof := range []gen.Profile{gen.GCC12O3, gen.GCC44O3} {
			b.progs = append(b.progs, sized(s, prof))
		}
	}
	return b, nil
}

// newAnalysisHeavy is the pointer- and aggregate-heavy slice with VSA,
// type recovery and static recovery on, plus the partial-coverage
// dispatch program so that cold-code recovery admits something. One
// profile keeps a pass near 7 s: the analyses' cost grows with code size,
// not input size, so a second profile would double the pass.
func newAnalysisHeavy(seed int64) (workload, error) {
	b := &batch{rng: rand.New(rand.NewSource(seed)),
		opts: core.Options{Jobs: workers, Lint: core.LintWarn, VSA: true, Types: true, StaticRecover: true}}
	for _, s := range heavySizes {
		b.progs = append(b.progs, sized(s, gen.GCC12O3))
	}
	b.progs = append(b.progs, batchProg{name: "coverage/gcc12-O3", src: coverageSrc, prof: gen.GCC12O3,
		inputs: []machine.Input{{Ints: []int32{0, 5, 7}}},
		cold:   []machine.Input{{Ints: []int32{1, 5, 7}}, {Ints: []int32{2, 5, 7}}}})
	return b, nil
}

// reference is one original binary and its runs under machine.Execute,
// independent of the pipeline.
type reference struct {
	img   *obj.Image
	steps uint64           // instructions over all trace inputs
	ref   machine.Result   // run on the ref input
	out   string           // output on the ref input
	cold  []string         // outputs on the cold inputs
	coldR []machine.Result // results on the cold inputs
}

func run1(img *obj.Image, in machine.Input) (machine.Result, string, error) {
	var out bytes.Buffer
	res, err := machine.Execute(img, in, &out)
	return res, out.String(), err
}

// setup builds every program and runs the originals.
func (b *batch) setup() ([]*reference, error) {
	refs := make([]*reference, len(b.progs))
	for i, bp := range b.progs {
		img, err := gen.Build(bp.src, bp.prof, bp.name)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", bp.name, err)
		}
		r := &reference{img: img}
		for _, in := range bp.inputs {
			res, out, err := run1(img, in)
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", bp.name, err)
			}
			r.steps += res.Steps
			r.ref, r.out = res, out
		}
		for _, in := range bp.cold {
			res, out, err := run1(img, in)
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", bp.name, err)
			}
			r.coldR = append(r.coldR, res)
			r.cold = append(r.cold, out)
		}
		refs[i] = r
	}
	return refs, nil
}

// outcome is what one recompile produced, for checking and metrics.
type outcome struct {
	p        *core.Pipeline
	img      *obj.Image
	promoted *layout.Program
	native   machine.Result
	nativeO  string
	rec      machine.Result
	recO     string
	coldR    []machine.Result
	coldO    []string
	oracles  int
}

func (b *batch) pass(rec *recorder) (*passResult, error) {
	pr := &passResult{exact: map[string]float64{}}
	mark := rec.mark()
	var refs []*reference
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var err error
		if refs, err = b.setup(); err != nil {
			return nil, err
		}
		pr.setups = append(pr.setups, time.Since(t0))
	}

	order := b.rng.Perm(len(b.progs))
	outs := make([]*outcome, len(b.progs))
	errs := make([]error, len(b.progs))
	root := rec.open("pass", 0, 0, nil)
	measureWork(pr, func() {
		for _, i := range order {
			start := time.Now()
			outs[i], errs[i] = b.recompile(b.progs[i], refs[i].img, rec, root)
			pr.lat = append(pr.lat, time.Since(start))
			pr.opNames = append(pr.opNames, b.progs[i].name)
		}
	})
	rec.close(root)

	var ratios []float64
	var acc layout.Accuracy
	var steps, cycles, instrs, promoted, admitted, oracles float64
	for i, bp := range b.progs {
		pr.ops++
		o, r := outs[i], refs[i]
		if err := errs[i]; err != nil {
			pr.fails = append(pr.fails, fmt.Sprintf("%s: %v", bp.name, err))
			continue
		}
		if msg := o.check(r); msg != "" {
			pr.fails = append(pr.fails, bp.name+": "+msg)
			continue
		}
		ratios = append(ratios, float64(o.rec.Cycles)/float64(r.ref.Cycles))
		acc.Add(accuracy(o))
		steps += float64(r.steps)
		cycles += float64(o.rec.Cycles)
		instrs += float64(len(o.img.Code))
		promoted += float64(promotedVars(o.promoted))
		oracles += float64(o.oracles)
		for _, st := range o.p.ColdStats {
			if st.Admitted {
				admitted++
			}
		}
	}
	pr.exact["cycles_ratio"] = geomean(ratios)
	pr.exact["layout_recall"] = acc.Recall()
	pr.exact["layout_precision"] = acc.Precision()
	pr.exact["tracer.steps"] = steps
	pr.exact["machine.recompiled_cycles"] = cycles
	pr.exact["codegen.instrs"] = instrs
	pr.exact["opt.promoted"] = promoted
	pr.exact["coldrec.admitted"] = admitted
	if rec == nil {
		return pr, nil
	}
	pr.exact["opt.oracle_calls"] = oracles

	values, err := b.bareRuns(refs, rec)
	if err != nil {
		return nil, err
	}
	pr.exact["irexec.values"] = values
	pr.layers = b.layers(pr, outs, rec.from(mark))
	return pr, nil
}

// recompile is the sequence serve.Runner performs for a recompile job.
// Traced, Refine is split into its public stage methods, and the
// optimizer's oracle and typed-info factories are wrapped to count and
// time their calls.
func (b *batch) recompile(bp batchProg, img *obj.Image, rec *recorder, root int) (*outcome, error) {
	args := map[string]any{"program": bp.name}
	prog := rec.open("program", root, 0, args)
	defer rec.close(prog)
	o := &outcome{}
	var err error
	liftStart := time.Now()
	lift := rec.open("LiftBinaryOpts", prog, 0, nil)
	o.p, err = core.LiftBinaryOpts(img, bp.inputs, b.opts)
	rec.close(lift)
	if err != nil {
		return nil, err
	}
	p := o.p
	if rec != nil {
		args["funcs"] = len(p.Mod.Funcs) // the span keeps args by reference
		names := make([]string, len(p.Times))
		ds := make([]time.Duration, len(p.Times))
		for i, st := range p.Times {
			names[i], ds[i] = st.Stage, st.Elapsed
		}
		rec.stages(lift, 0, rec.since(liftStart), names, ds)
		for _, st := range []struct {
			name string
			fn   func() error
		}{
			{"regsave", p.RefineRegSave},
			{"varargs", p.RefineVarArgs},
			{"stackref", p.RefineStackRef},
			{"symbolize", func() error { _, err := p.RefineSymbolize(); return err }},
			{"vsa", p.RefineVSA},
			{"typerec", p.RefineTypes},
		} {
			if err := rec.call(st.name, prog, true, st.fn); err != nil {
				return nil, err
			}
		}
	} else if err := p.Refine(); err != nil {
		return nil, err
	}

	oracle, typed := p.Oracle(), p.TypedInfo()
	optSpan := rec.open("opt", prog, 0, nil)
	if rec != nil {
		oracle, typed = wrapFactories(rec, optSpan, oracle, typed, &o.oracles)
	}
	o.promoted = opt.PipelineWith(p.Mod, opt.PipelineOpts{Oracle: oracle, Typed: typed})
	rec.close(optSpan)

	if err := rec.call("codegen", prog, false, func() error {
		o.img, err = codegen.Compile(p.Mod, bp.name+"-rec")
		return err
	}); err != nil {
		return nil, err
	}
	err = rec.call("validate", prog, false, func() error {
		if o.native, o.nativeO, err = run1(img, bp.ref()); err != nil {
			return fmt.Errorf("native run: %w", err)
		}
		if o.rec, o.recO, err = run1(o.img, bp.ref()); err != nil {
			return fmt.Errorf("recompiled run: %w", err)
		}
		for _, in := range bp.cold {
			res, out, err := run1(o.img, in)
			if err != nil {
				return fmt.Errorf("recompiled run on cold input %v: %w", in.Ints, err)
			}
			o.coldR, o.coldO = append(o.coldR, res), append(o.coldO, out)
		}
		return nil
	})
	return o, err
}

// wrapFactories counts and times every call of the optimizer's
// per-function factories as spans under the opt span.
func wrapFactories(rec *recorder, parent int, oracle func(*ir.Func) opt.AliasOracle,
	typed func(*ir.Func) opt.TypedInfo, calls *int) (func(*ir.Func) opt.AliasOracle, func(*ir.Func) opt.TypedInfo) {
	var mu sync.Mutex
	if oracle != nil {
		inner := oracle
		oracle = func(f *ir.Func) opt.AliasOracle {
			var o opt.AliasOracle
			rec.call("oracle", parent, false, func() error { o = inner(f); return nil })
			mu.Lock()
			*calls++
			mu.Unlock()
			return o
		}
	}
	if typed != nil {
		inner := typed
		typed = func(f *ir.Func) opt.TypedInfo {
			var t opt.TypedInfo
			rec.call("typed", parent, false, func() error { t = inner(f); return nil })
			return t
		}
	}
	return oracle, typed
}

// check compares the recompiled binary with the reference runs of the
// original binary.
func (o *outcome) check(r *reference) string {
	if o.nativeO != r.out || o.native.ExitCode != r.ref.ExitCode {
		return "the original binary's in-pipeline run differs from its reference run"
	}
	if o.recO != r.out || o.rec.ExitCode != r.ref.ExitCode {
		return fmt.Sprintf("recompiled output %q exit %d, want %q exit %d",
			o.recO, o.rec.ExitCode, r.out, r.ref.ExitCode)
	}
	for i := range r.cold {
		if o.coldO[i] != r.cold[i] || o.coldR[i].ExitCode != r.coldR[i].ExitCode {
			return fmt.Sprintf("cold input %d: recompiled output %q, want %q", i, o.coldO[i], r.cold[i])
		}
	}
	return ""
}

// accuracy scores the recovered layout against the compiler's ground
// truth the way bench.RunProgram does: the objects that survive as frame
// memory plus the scalars mem2reg promoted, against the truth of the
// lifted functions.
func accuracy(o *outcome) layout.Accuracy {
	recovered := symbolize.RecoveredLayout(o.p.Mod)
	for _, name := range o.promoted.FuncNames() {
		pf := o.promoted.Frame(name)
		rf := recovered.Frame(name)
		if rf == nil {
			recovered.Add(pf)
			continue
		}
		rf.Vars = append(rf.Vars, pf.Vars...)
		rf.Sort()
	}
	truth := layout.NewProgram()
	for _, f := range o.p.Mod.Funcs {
		if tf := o.p.Img.Truth.Frame(f.Name); tf != nil {
			truth.Add(tf)
		}
	}
	return layout.Compare(truth, recovered)
}

func promotedVars(p *layout.Program) int {
	n := 0
	for _, f := range p.Frames {
		n += len(f.Vars)
	}
	return n
}

// bareRuns lifts every program again and runs the fresh module under all
// its trace inputs with no tracer attached: the irexec cost a refinement
// replay pays before any tracer work. It runs outside the program spans,
// so it does not count toward the pass's recompile time.
func (b *batch) bareRuns(refs []*reference, rec *recorder) (values float64, err error) {
	probe := rec.open("probe", 0, 0, nil)
	defer rec.close(probe)
	for i, bp := range b.progs {
		p, err := core.LiftBinaryOpts(refs[i].img, bp.inputs, b.opts)
		if err != nil {
			return 0, fmt.Errorf("%s: probe lift: %w", bp.name, err)
		}
		for _, in := range bp.inputs {
			var res irexec.Result
			err := rec.call("irexec", probe, false, func() error {
				var err error
				res, err = irexec.Run(p.Mod, in, io.Discard, nil)
				return err
			})
			if err != nil {
				return 0, fmt.Errorf("%s: bare irexec run: %w", bp.name, err)
			}
			values += float64(res.Steps)
		}
	}
	return values, nil
}

// layers derives the per-layer metrics of one traced pass from its spans.
func (b *batch) layers(pr *passResult, outs []*outcome, spans []span) map[string]float64 {
	secs := layerTotals(spans)
	m := map[string]float64{}
	for k, v := range pr.exact {
		m[k] = v
	}
	m["tracer.s"] = secs["trace"]
	m["tracer.steps_per_s"] = pr.exact["tracer.steps"] / secs["trace"]
	m["lifter.s"] = secs["cfg"] + secs["funcrec"] + secs["coldrec"] + secs["lift"]
	for _, k := range []string{"regsave", "varargs", "stackref", "symbolize", "vsa", "typerec", "opt", "codegen"} {
		m[k+".s"] = secs[k]
	}
	m["irexec.bare_s"] = secs["irexec"]
	m["irexec.values_per_s"] = pr.exact["irexec.values"] / secs["irexec"]
	m["irexec.replay_share"] = (secs["regsave"] + secs["varargs"] + secs["symbolize"]) / secs["program"]
	var cpu, wall float64
	for _, s := range spans {
		if s.cpu > 0 {
			cpu += s.cpu.Seconds()
			wall += (s.end - s.start).Seconds()
		}
	}
	if wall > 0 {
		m["par.cpu_per_wall"] = cpu / wall
	}
	m["opt.oracle_s"] = secs["oracle"]
	m["opt.typed_s"] = secs["typed"]
	m["machine.validate_s"] = secs["validate"]
	for _, o := range outs {
		if o == nil {
			continue
		}
		for _, st := range o.p.VSAStats {
			m["vsa.max_func_ms"] = max(m["vsa.max_func_ms"], float64(st.Elapsed.Microseconds())/1e3)
		}
	}
	return m
}
