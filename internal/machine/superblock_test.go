package machine_test

// Differential tests for superblock dispatch (superblock.go): every
// observable of an execution — final registers, pc, Steps, Cycles, total
// cycles, exit code, program output, the memory digest, and the exact
// BlockHook event stream — must be identical whether a program runs
// through Run or through a manual Step loop (the per-instruction
// reference), with or without a BlockHook attached. For a run that halts,
// the reported block ranges concatenated in order must also equal the Step
// loop's pc sequence: that is the coverage the tracer takes from them. The
// dispatch switch exists in two deliberate copies (see superblock.go);
// these tests are the guard that keeps the copies from drifting.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/codegen/irgen"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
)

// blockEv is one BlockHook callback, recorded verbatim.
type blockEv struct {
	start, end uint32
	t          machine.Transfer
	term       bool
}

// runState is everything observable about one finished (or faulted)
// execution.
type runState struct {
	errStr string // "" when the run halted cleanly
	regs   [isa.NumRegs]uint32
	pc     uint32
	steps  uint64
	cycles uint64
	total  uint64
	halted bool
	exit   int32
	digest [sha256.Size]byte
	out    string
	blocks []blockEv // BlockHook stream; nil when the hook was off
	pcs    []uint32  // executed pcs in order; nil unless the run was stepwise
}

// runSteps is the per-instruction reference: a manual Step loop until halt
// or error. visit, when non-nil, receives in order the pc of every
// instruction that counted a step (a faulting instruction does; one the
// step budget refused does not).
func runSteps(m *machine.Machine, visit func(pc uint32)) error {
	for !m.Halted() {
		pc, steps := m.PC(), m.Steps
		err := m.Step()
		if visit != nil && m.Steps > steps {
			visit(pc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runImage executes img on input through Run, or through the runSteps
// reference when stepwise is set (recording the pc sequence), and returns
// the full observable state. block attaches a BlockHook that records every
// block event. maxSteps overrides the default budget when non-zero.
func runImage(t *testing.T, img *obj.Image, input machine.Input, stepwise, block bool, maxSteps uint64) runState {
	t.Helper()
	var out bytes.Buffer
	m, err := machine.New(img, input, &out)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	if maxSteps != 0 {
		m.MaxSteps = maxSteps
	}
	var st runState
	if block {
		st.blocks = []blockEv{}
		m.BlockHook = func(start, end uint32, tr machine.Transfer, term bool) {
			st.blocks = append(st.blocks, blockEv{start, end, tr, term})
		}
	}
	if stepwise {
		st.pcs = []uint32{}
		err = runSteps(m, func(pc uint32) { st.pcs = append(st.pcs, pc) })
	} else {
		err = m.Run()
	}
	if err != nil {
		st.errStr = err.Error()
	}
	st.regs = m.Regs
	st.pc = m.PC()
	st.steps = m.Steps
	st.cycles = m.Cycles
	st.total = m.TotalCycles()
	st.halted = m.Halted()
	st.exit = m.ExitCode()
	st.digest = m.Mem.Digest()
	st.out = out.String()
	return st
}

// diffStates fails the test on the first observable that differs between a
// reference run and a candidate run. Event streams are compared only when
// both runs recorded them.
func diffStates(t *testing.T, label string, ref, got runState) {
	t.Helper()
	if ref.errStr != got.errStr {
		t.Fatalf("%s: error mismatch:\n ref: %q\n got: %q", label, ref.errStr, got.errStr)
	}
	if ref.regs != got.regs {
		t.Errorf("%s: registers differ:\n ref: %v\n got: %v", label, ref.regs, got.regs)
	}
	if ref.pc != got.pc {
		t.Errorf("%s: pc differs: ref=0x%x got=0x%x", label, ref.pc, got.pc)
	}
	if ref.steps != got.steps {
		t.Errorf("%s: Steps differ: ref=%d got=%d", label, ref.steps, got.steps)
	}
	if ref.cycles != got.cycles {
		t.Errorf("%s: Cycles differ: ref=%d got=%d", label, ref.cycles, got.cycles)
	}
	if ref.total != got.total {
		t.Errorf("%s: TotalCycles differ: ref=%d got=%d", label, ref.total, got.total)
	}
	if ref.halted != got.halted {
		t.Errorf("%s: halted differs: ref=%v got=%v", label, ref.halted, got.halted)
	}
	if ref.exit != got.exit {
		t.Errorf("%s: exit code differs: ref=%d got=%d", label, ref.exit, got.exit)
	}
	if ref.digest != got.digest {
		t.Errorf("%s: memory digests differ", label)
	}
	if ref.out != got.out {
		t.Errorf("%s: program output differs:\n ref: %q\n got: %q", label, ref.out, got.out)
	}
	if ref.blocks != nil && got.blocks != nil {
		if len(ref.blocks) != len(got.blocks) {
			t.Fatalf("%s: block event counts differ: ref=%d got=%d", label, len(ref.blocks), len(got.blocks))
		}
		for i := range ref.blocks {
			if ref.blocks[i] != got.blocks[i] {
				t.Fatalf("%s: block event %d differs:\n ref: %+v\n got: %+v", label, i, ref.blocks[i], got.blocks[i])
			}
		}
	}
	if ref.pcs != nil && got.pcs != nil {
		if len(ref.pcs) != len(got.pcs) {
			t.Fatalf("%s: pc sequence lengths differ: ref=%d got=%d", label, len(ref.pcs), len(got.pcs))
		}
		for i := range ref.pcs {
			if ref.pcs[i] != got.pcs[i] {
				t.Fatalf("%s: pc %d differs: ref=0x%x got=0x%x", label, i, ref.pcs[i], got.pcs[i])
			}
		}
	}
}

// differential runs img on input through {Run, Step loop} × {no hook,
// BlockHook} and requires all of them to observe the same execution.
func differential(t *testing.T, img *obj.Image, input machine.Input) {
	t.Helper()
	// The reference: the Step loop with the block hook attached.
	ref := runImage(t, img, input, true, true, 0)
	if uint64(len(ref.pcs)) != ref.steps {
		t.Errorf("reference: %d pcs recorded for %d steps", len(ref.pcs), ref.steps)
	}
	if ref.errStr == "" {
		checkBlocksCoverPCs(t, ref)
	}
	configs := []struct{ stepwise, block bool }{
		{false, false}, // superblock fast path, no observer
		{false, true},  // superblock + block hook: the tracer's mode
		{true, false},  // Step loop, no observer
	}
	for _, c := range configs {
		got := runImage(t, img, input, c.stepwise, c.block, 0)
		diffStates(t, fmt.Sprintf("stepwise=%v block=%v", c.stepwise, c.block), ref, got)
	}
}

// checkBlocksCoverPCs requires a halted run's block ranges, concatenated
// in order, to equal its Step loop pc sequence.
func checkBlocksCoverPCs(t *testing.T, st runState) {
	t.Helper()
	var pcs []uint32
	for _, b := range st.blocks {
		for pc := b.start; pc <= b.end; pc += isa.InstrSize {
			pcs = append(pcs, pc)
		}
	}
	if len(pcs) != len(st.pcs) {
		t.Fatalf("block ranges cover %d instructions, the Step loop executed %d", len(pcs), len(st.pcs))
	}
	for i := range pcs {
		if pcs[i] != st.pcs[i] {
			t.Fatalf("block ranges' instruction %d is 0x%x, the Step loop's is 0x%x", i, pcs[i], st.pcs[i])
		}
	}
}

// TestSuperblockDifferentialCorpus runs every bench-corpus program
// (compiled with the full mini-C pipeline) under superblock and
// per-instruction dispatch and requires observational identity.
func TestSuperblockDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is minutes-scale under -race; ci.sh runs it in a dedicated step")
	}
	for _, p := range progs.All {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
			if err != nil {
				t.Fatalf("build %s: %v", p.Name, err)
			}
			differential(t, img, p.Train)
		})
	}
}

// TestSuperblockDifferentialRandomIR feeds the dispatcher adversarial
// instruction mixes: random well-defined IR compiled straight through
// codegen, shapes the mini-C frontend never emits.
func TestSuperblockDifferentialRandomIR(t *testing.T) {
	if testing.Short() {
		t.Skip("random-IR differential skips under -short; ci.sh runs it in a dedicated step")
	}
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			a := int32(seed*11 - 200)
			b := int32(seed*-5 + 137)
			img, err := codegen.Compile(irgen.Build(seed, a, b), "rnd")
			if err != nil {
				t.Fatalf("compile seed %d: %v", seed, err)
			}
			differential(t, img, machine.Input{})
		})
	}
}

// faultMid is a program that faults with a null-page store in the middle of
// a long straight-line run: several instructions execute before the fault
// and two more sit after it in the same superblock, so partial-batch Steps
// and Cycles accounting is on the line.
const faultMid = `
main:
    addi eax, 1
    addi eax, 2
    movi ebx, 16
    addi eax, 4
    store4 [ebx], eax
    addi eax, 8
    addi eax, 16
    halt
`

// faultDiv divides by zero mid-run.
const faultDiv = `
main:
    movi eax, 100
    addi eax, 1
    movi ebx, 0
    div eax, ebx
    addi eax, 1
    halt
`

// faultPop underflows into unmapped-is-fine territory but then loads from
// the null page via a POP with ESP pointing below 0x1000.
const faultPop = `
main:
    movi esp, 16
    addi eax, 1
    pop ecx
    halt
`

// TestSuperblockFaultDifferential checks that faults raised from inside a
// superblock leave the machine in exactly the state per-instruction
// dispatch leaves it in: same error string, same pc (the faulting
// instruction), same partial Steps/Cycles, same registers.
func TestSuperblockFaultDifferential(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"null-store-mid-run", faultMid},
		{"div-by-zero", faultDiv},
		{"pop-null-page", faultPop},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			img, err := asm.Assemble(c.name, c.src, "")
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			ref := runImage(t, img, machine.Input{}, true, true, 0)
			if ref.errStr == "" {
				t.Fatalf("expected the reference run to fault")
			}
			for _, block := range []bool{false, true} {
				got := runImage(t, img, machine.Input{}, false, block, 0)
				diffStates(t, fmt.Sprintf("superblock block=%v", block), ref, got)
			}
		})
	}
}

// stepLoop is the benchmark loop: an infinite straight-line body ending in
// an unconditional jump, the densest superblock the dispatcher sees.
const stepLoop = `
main:
    mov ebx, esp
    subi ebx, 64
.loop:
    addi eax, 1
    mov ecx, eax
    shli ecx, 3
    store4 [ebx], ecx
    load4 edx, [ebx]
    add edx, eax
    cmpi eax, 0
    jmp .loop
`

// TestSuperblockMaxStepsParity is the MaxSteps overshoot regression test: a
// superblock must never execute past the step budget. For every budget
// crossing a run boundary at every offset, Run with and without a
// BlockHook must stop with ErrMaxSteps after exactly MaxSteps instructions,
// in the same state as the Step loop.
func TestSuperblockMaxStepsParity(t *testing.T) {
	img, err := asm.Assemble("steploop", stepLoop, "")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for budget := uint64(1); budget <= 40; budget++ {
		ref := runImage(t, img, machine.Input{}, true, true, budget)
		if ref.errStr != machine.ErrMaxSteps.Error() {
			t.Fatalf("budget %d: reference error = %q, want ErrMaxSteps", budget, ref.errStr)
		}
		if ref.steps != budget {
			t.Fatalf("budget %d: reference executed %d steps", budget, ref.steps)
		}
		for _, block := range []bool{false, true} {
			got := runImage(t, img, machine.Input{}, false, block, budget)
			if got.steps > budget {
				t.Fatalf("budget %d block=%v: superblock overshot the budget: %d steps", budget, block, got.steps)
			}
			diffStates(t, fmt.Sprintf("budget=%d block=%v", budget, block), ref, got)
		}
	}
}

// TestSuperblockMaxStepsErrIs pins that the budget error from both dispatch
// paths is the ErrMaxSteps sentinel (callers re-arm budgets by matching
// it), not merely a string twin.
func TestSuperblockMaxStepsErrIs(t *testing.T) {
	img, err := asm.Assemble("steploop", stepLoop, "")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, stepwise := range []bool{false, true} {
		m, err := machine.New(img, machine.Input{}, nil)
		if err != nil {
			t.Fatalf("machine.New: %v", err)
		}
		run := m.Run
		if stepwise {
			run = func() error { return runSteps(m, nil) }
		}
		m.MaxSteps = 17
		if err := run(); !errors.Is(err, machine.ErrMaxSteps) {
			t.Fatalf("stepwise=%v: Run = %v, want ErrMaxSteps", stepwise, err)
		}
		if m.Steps != 17 {
			t.Fatalf("stepwise=%v: Steps = %d, want 17", stepwise, m.Steps)
		}
		// The machine is resumable after a budget bump, in both modes.
		m.MaxSteps = 34
		if err := run(); !errors.Is(err, machine.ErrMaxSteps) {
			t.Fatalf("stepwise=%v resume: Run = %v, want ErrMaxSteps", stepwise, err)
		}
		if m.Steps != 34 {
			t.Fatalf("stepwise=%v resume: Steps = %d, want 34", stepwise, m.Steps)
		}
	}
}

// TestStepInterleavesWithRun pins that a manual Step loop and Run agree
// even when interleaved: stepping N instructions and then calling Run must
// finish in the same state as Run alone.
func TestStepInterleavesWithRun(t *testing.T) {
	p, ok := progs.ByName("mcf")
	if !ok {
		t.Fatal("mcf not in corpus")
	}
	img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ref := runImage(t, img, p.Train, false, false, 0)
	var out bytes.Buffer
	m, err := machine.New(img, p.Train, &out)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	for i := 0; i < 137 && !m.Halted(); i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run after stepping: %v", err)
	}
	if m.Regs != ref.regs || m.Steps != ref.steps || m.Cycles != ref.cycles {
		t.Fatalf("interleaved Step+Run diverged: regs=%v steps=%d cycles=%d, want regs=%v steps=%d cycles=%d",
			m.Regs, m.Steps, m.Cycles, ref.regs, ref.steps, ref.cycles)
	}
	if d := m.Mem.Digest(); d != ref.digest {
		t.Fatalf("interleaved Step+Run memory digest diverged")
	}
	if out.String() != ref.out {
		t.Fatalf("interleaved Step+Run output diverged: %q vs %q", out.String(), ref.out)
	}
}
