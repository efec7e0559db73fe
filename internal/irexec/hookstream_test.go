package irexec_test

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/regsave"
	"wytiwyg/internal/varargs"
	"wytiwyg/internal/vartrack"
)

// recorder is a Tracer that folds the full hook stream into a running
// FNV-1a hash: per event its kind, the frame's function, epoch, depth,
// SP0, call site and caller epoch, the value IDs, and every argument,
// return and result word. In capture mode it also keeps each event's own
// hash, or its rendering for the events in [from, to), to locate and show
// the first divergence between two streams.
type recorder struct {
	h, n     uint64
	hashes   []uint64
	keep     bool
	from, to uint64
	lines    []string
	// fn and fnHash memoize the hash of the last frame's function name.
	fn     *ir.Func
	fnHash uint64
}

func (r *recorder) word(w uint64) {
	r.h = (r.h ^ w) * 1099511628211
}

func (r *recorder) event(kind byte, fr *irexec.Frame, id, id2 int, vals []uint32, x uint32) {
	start := r.h
	if fr.Fn != r.fn {
		r.h = 14695981039346656037
		for _, c := range fr.Fn.Name {
			r.word(uint64(c))
		}
		r.fn, r.fnHash = fr.Fn, r.h
	}
	r.h = 14695981039346656037
	r.word(uint64(kind))
	r.word(r.fnHash)
	site, caller := -1, uint64(0)
	if fr.CallSite != nil {
		site = fr.CallSite.ID
	}
	if fr.Caller != nil {
		caller = fr.Caller.Epoch
	}
	r.word(fr.Epoch)
	r.word(uint64(fr.Depth))
	r.word(uint64(fr.SP0))
	r.word(uint64(site))
	r.word(caller)
	r.word(uint64(id))
	r.word(uint64(id2))
	r.word(uint64(len(vals)))
	for _, v := range vals {
		r.word(uint64(v))
	}
	r.word(uint64(x))
	one := r.h
	r.h = start
	r.word(one)
	if r.keep {
		r.hashes = append(r.hashes, one)
	}
	if r.n >= r.from && r.n < r.to {
		r.lines = append(r.lines, fmt.Sprintf("#%d %c %s epoch=%d depth=%d sp0=%#x site=%d caller=%d ids=v%d,v%d vals=%v x=%#x",
			r.n, kind, fr.Fn.Name, fr.Epoch, fr.Depth, fr.SP0, site, caller, id, id2, vals, x))
	}
	r.n++
}

func (r *recorder) FnEnter(fr *irexec.Frame) { r.event('E', fr, -1, -1, nil, 0) }

func (r *recorder) FnExit(fr *irexec.Frame, ret *ir.Value, rets []uint32) {
	r.event('X', fr, ret.ID, -1, rets, 0)
}

func (r *recorder) Phi(fr *irexec.Frame, phi, in *ir.Value, val uint32) {
	r.event('P', fr, phi.ID, in.ID, nil, val)
}

func (r *recorder) Exec(fr *irexec.Frame, v *ir.Value, args []uint32, res uint32) {
	r.event('V', fr, v.ID, -1, args, res)
}

// outcome is everything one interpreter run leaves behind.
type outcome struct {
	res    irexec.Result
	err    string
	steps  uint64
	hooks  uint64
	stubs  map[string]int
	out    string
	mem    [32]byte
	events uint64
	hash   uint64
}

func (o outcome) String() string {
	return fmt.Sprintf("res=%+v err=%q steps=%d hooks=%d stubs=%v out=%d bytes events=%d",
		o.res, o.err, o.steps, o.hooks, o.stubs, len(o.out), o.events)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runCompiled runs one input on the compiled interpreter, over prog.
func runCompiled(prog *irexec.Program, in machine.Input, budget uint64, r *recorder) outcome {
	var out bytes.Buffer
	ip, err := prog.NewInterp(in, &out)
	if err != nil {
		return outcome{err: err.Error()}
	}
	ip.Tr = r
	ip.MaxSteps = budget
	res, err := ip.Run()
	return outcome{res: res, err: errString(err), steps: ip.Steps, hooks: ip.Hooks, stubs: ip.StubHits,
		out: out.String(), mem: ip.Mem.Digest(), events: r.n, hash: r.h}
}

// runReference runs one input on the reference tree-walker under the
// filters of obs.
func runReference(mod *ir.Module, obs irexec.Observer, in machine.Input, budget uint64, r *recorder) outcome {
	if budget == 0 {
		budget = 4_000_000_000
	}
	var out bytes.Buffer
	res, steps, hooks, stubs, mem, err := irexec.RunReference(mod, in, &out, r, obs, budget)
	o := outcome{res: res, err: errString(err), steps: steps, hooks: hooks, stubs: stubs,
		out: out.String(), events: r.n, hash: r.h}
	if mem != nil {
		o.mem = mem.Digest()
	}
	return o
}

// diff runs one input under both interpreters with the step budget budget
// (0: the default) and the hook filters of obs (nil: none), and reports
// any difference in the hook stream or the run's outcome. It returns the
// compiled run's outcome.
func diff(t *testing.T, name string, mod *ir.Module, obs irexec.Observer, in machine.Input, budget uint64) outcome {
	t.Helper()
	prog := irexec.NewProgram(mod, obs)
	return check(t, name, prog, mod, obs, in, budget, runCompiled(prog, in, budget, &recorder{}))
}

// check compares the compiled run's outcome got, over prog, with the
// reference run under the filters of obs.
func check(t *testing.T, name string, prog *irexec.Program, mod *ir.Module, obs irexec.Observer, in machine.Input, budget uint64, got outcome) outcome {
	t.Helper()
	want := runReference(mod, obs, in, budget, &recorder{})
	same := got.res == want.res && got.err == want.err && got.steps == want.steps && got.hooks == want.hooks &&
		maps.Equal(got.stubs, want.stubs) && got.out == want.out && got.mem == want.mem
	if !same {
		t.Errorf("%s (budget %d): compiled %v, reference %v", name, budget, got, want)
	}
	if got.events != want.events || got.hash != want.hash {
		t.Errorf("%s (budget %d): hook streams differ (%d vs %d events)\n%s",
			name, budget, got.events, want.events, divergence(prog, mod, obs, in, budget))
	}
	return got
}

// divergence replays a mismatching run in capture mode and renders the
// events around the first difference.
func divergence(prog *irexec.Program, mod *ir.Module, obs irexec.Observer, in machine.Input, budget uint64) string {
	a, b := &recorder{keep: true}, &recorder{keep: true}
	runCompiled(prog, in, budget, a)
	runReference(mod, obs, in, budget, b)
	i := uint64(0)
	for i < uint64(min(len(a.hashes), len(b.hashes))) && a.hashes[i] == b.hashes[i] {
		i++
	}
	from := max(i, 3) - 3
	a, b = &recorder{from: from, to: i + 1}, &recorder{from: from, to: i + 1}
	runCompiled(prog, in, budget, a)
	runReference(mod, obs, in, budget, b)
	return "compiled:\n" + strings.Join(a.lines, "\n") + "\nreference:\n" + strings.Join(b.lines, "\n")
}

// diffModule checks every input of mod under the filters of obs. As in a
// refinement replay, the compiled runs share one Program and run
// concurrently, so functions compile lazily while other inputs execute
// them.
func diffModule(t *testing.T, name string, mod *ir.Module, obs irexec.Observer, inputs []machine.Input) []outcome {
	t.Helper()
	prog := irexec.NewProgram(mod, obs)
	outs := make([]outcome, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = runCompiled(prog, in, 0, &recorder{})
		}()
	}
	wg.Wait()
	for i, in := range inputs {
		check(t, fmt.Sprintf("%s input %d", name, i), prog, mod, obs, in, 0, outs[i])
	}
	return outs
}

// TestHookStreamMatchesTreeWalker runs every corpus program under all four
// profiles and both inputs through the compiled interpreter and the
// reference tree-walker, at the two ends of the refinement pipeline: the
// module as lifted (register signatures, the emulated stack, raw variadic
// calls) and as symbolized (allocas, SP0, promoted stack arguments). Each
// run must produce the same hook stream, value and hook counts, result,
// error, output and memory. The two refinement replays' module states
// also run under their tracers' filters (the lifted module under regsave's
// and varargs', the stack-referenced one under vartrack's), the reference
// asking the filter before each Exec and Phi hook where the compiled code
// reads the bits compiled from it. The lifted module additionally runs with a step
// budget that cuts the train input in half, and a module lifted from the
// tiny input 1 alone replays the ref input, which reaches trap stubs where
// it leaves that input's coverage. The ref input is scaled to 6, as in the
// other corpus-wide pipeline tests; at full size astar's ref alone is 113M
// values as lifted. Under -short only mcf runs.
func TestHookStreamMatchesTreeWalker(t *testing.T) {
	var traps atomic.Int32
	t.Run("corpus", func(t *testing.T) {
		for _, p := range progs.All {
			if testing.Short() && p.Name != "mcf" {
				continue
			}
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				for _, prof := range gen.Profiles {
					if diffProgram(t, p, prof) {
						traps.Add(1)
					}
				}
			})
		}
	})
	if !testing.Short() && traps.Load() == 0 {
		t.Error("no replay of a module lifted from input 1 reached a trap stub")
	}
}

// diffProgram checks one corpus program under one profile and reports
// whether the ref replay of its module lifted from input 1 reached a trap
// stub.
func diffProgram(t *testing.T, p progs.Program, prof gen.Profile) bool {
	p = bench.Scaled(p, 6)
	name := p.Name + "/" + prof.Name
	img, err := gen.Build(p.Src, prof, p.Name)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	pl, err := core.LiftBinary(img, p.Inputs())
	if err != nil {
		t.Fatalf("%s: lift: %v", name, err)
	}
	outs := diffModule(t, name+" lifted", pl.Mod, nil, p.Inputs())
	diff(t, name+" lifted, half budget", pl.Mod, nil, p.Train, outs[0].steps/2)
	diffModule(t, name+" lifted, regsave filter", pl.Mod, irexec.Union(regsave.NewTracer(), varargs.NewTracer()), p.Inputs())
	for _, stage := range []func() error{pl.RefineRegSave, pl.RefineVarArgs, pl.RefineStackRef} {
		if err := stage(); err != nil {
			t.Fatalf("%s: refine: %v", name, err)
		}
	}
	diffModule(t, name+" stackref, vartrack filter", pl.Mod, vartrack.NewTracer(pl.SPOffsets), p.Inputs())
	if _, err := pl.RefineSymbolize(); err != nil {
		t.Fatalf("%s: symbolize: %v", name, err)
	}
	diffModule(t, name+" symbolized", pl.Mod, nil, p.Inputs())

	part, err := core.LiftBinary(img, []machine.Input{{Ints: []int32{1}}})
	if err != nil {
		t.Fatalf("%s: lift input 1: %v", name, err)
	}
	return len(diffModule(t, name+" lifted from input 1", part.Mod, nil, []machine.Input{p.Ref})[0].stubs) > 0
}

// TestHookStreamRandomModules checks 200 random irgen modules the same
// way, each under the default budget and under budgets that stop it at
// its second value, halfway and one value short.
func TestHookStreamRandomModules(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		mod := irgen.Build(seed, int32(seed*7-300), int32(seed%13-6))
		name := fmt.Sprintf("irgen seed %d", seed)
		o := diffModule(t, name, mod, nil, []machine.Input{{}})[0]
		for _, budget := range []uint64{1, o.steps / 2, o.steps - 1} {
			diff(t, name, mod, nil, machine.Input{}, budget)
		}
	}
}

// FuzzHookStream is the random-module differential as a native fuzz
// target: the fuzzer picks the irgen seed, the arguments _start passes to
// f and a step budget of at most 65,536 values, which cuts some runs short
// and keeps every input fast. Each module runs on both interpreters
// unfiltered and under regsave's and varargs' filters. The seed corpus
// holds seeds of TestHookStreamRandomModules, run to completion and cut
// after one value.
func FuzzHookStream(f *testing.F) {
	for _, seed := range []int64{1, 2, 17, 64, 200} {
		f.Add(seed, int32(seed*7-300), int32(seed%13-6), uint16(0xFFFF))
	}
	f.Add(int64(3), int32(-279), int32(-3), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, a, b int32, cut uint16) {
		mod := irgen.Build(seed, a, b)
		name := fmt.Sprintf("irgen seed %d f(%d, %d)", seed, a, b)
		budget := uint64(cut) + 1
		diff(t, name, mod, nil, machine.Input{}, budget)
		diff(t, name+", regsave filter", mod, irexec.Union(regsave.NewTracer(), varargs.NewTracer()), machine.Input{}, budget)
	})
}

// TestHookStreamFailures checks the failure paths one by one: division
// and remainder by zero, a trap, a memory fault, a phi with no incoming
// value for the taken edge, and a loop that runs out of budget.
func TestHookStreamFailures(t *testing.T) {
	for _, op := range []ir.Op{ir.OpDiv, ir.OpMod} {
		m, f, b := entryModule()
		x := konst(f, b, 7)
		z := konst(f, b, 0)
		b.Append(f.NewValue(op, x, z))
		exitWith(f, b, x)
		diffModule(t, op.String()+" by zero", m, nil, []machine.Input{{}})
	}

	m, f, b := entryModule()
	konst(f, b, 1)
	b.Append(f.NewValue(ir.OpTrap))
	diffModule(t, "trap", m, nil, []machine.Input{{}})

	m, f, b = entryModule()
	ld := f.NewValue(ir.OpLoad, konst(f, b, 16))
	ld.Size = 4
	b.Append(ld)
	exitWith(f, b, ld)
	diffModule(t, "null-page load", m, nil, []machine.Input{{}})

	m, f, b = entryModule()
	join := f.NewBlock(0)
	b.Append(f.NewValue(ir.OpJmp))
	b.Succs = []*ir.Block{join}
	join.Preds = []*ir.Block{b}
	phi := join.AddPhi(f.NewValue(ir.OpPhi, nil))
	exitWith(f, join, phi)
	diffModule(t, "phi without incoming value", m, nil, []machine.Input{{}})

	// A counting loop: i = phi(0, i+1); exit when i reaches 5.
	m, f, b = entryModule()
	loop, done := f.NewBlock(0), f.NewBlock(0)
	zero := konst(f, b, 0)
	b.Append(f.NewValue(ir.OpJmp))
	b.Succs = []*ir.Block{loop}
	i := loop.AddPhi(f.NewValue(ir.OpPhi, zero, nil))
	next := loop.Append(f.NewValue(ir.OpAdd, i, konst(f, loop, 1)))
	i.Args[1] = next
	cmp := loop.Append(f.NewValue(ir.OpCmp, next, konst(f, loop, 5)))
	cmp.Cond = isa.CondLT
	loop.Append(f.NewValue(ir.OpBr, cmp))
	loop.Preds = []*ir.Block{b, loop}
	loop.Succs = []*ir.Block{loop, done}
	done.Preds = []*ir.Block{loop}
	exitWith(f, done, next)
	o := diffModule(t, "loop", m, nil, []machine.Input{{}})[0]
	for budget := uint64(1); budget <= o.steps+1; budget++ {
		diff(t, "loop", m, nil, machine.Input{}, budget)
	}
}

// entryModule returns a module whose entry function has one empty block.
func entryModule() (*ir.Module, *ir.Func, *ir.Block) {
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	m.Entry = f
	return m, f, f.NewBlock(0)
}

// exitWith ends b with a call to exit(v).
func exitWith(f *ir.Func, b *ir.Block, v *ir.Value) {
	call := f.NewValue(ir.OpCallExt, v)
	call.Sym = "exit"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpTrap))
}
