package irexec_test

import (
	"errors"
	"strings"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
)

// buildModule constructs a hand-written module: main computes with params,
// allocas and a loop, then exits via the external.
func buildExitModule(retVal int32) *ir.Module {
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst)
	k.Const = retVal
	b.Append(k)
	call := f.NewValue(ir.OpCallExt, k)
	call.Sym = "exit"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	return m
}

func TestRunExit(t *testing.T) {
	m := buildExitModule(42)
	res, err := irexec.Run(m, machine.Input{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 42 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestTrapReported(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	_, err := irexec.Run(m, machine.Input{}, nil, nil)
	if !errors.Is(err, irexec.ErrTrap) {
		t.Errorf("err = %v, want trap", err)
	}
}

func TestDivisionByZeroReported(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	one := f.NewValue(ir.OpConst)
	one.Const = 1
	zero := f.NewValue(ir.OpConst)
	zero.Const = 0
	div := f.NewValue(ir.OpDiv, one, zero)
	b.Append(one)
	b.Append(zero)
	b.Append(div)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	if _, err := irexec.Run(m, machine.Input{}, nil, nil); err == nil {
		t.Error("division by zero not reported")
	}
}

func TestAllocaAndMemory(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	a := f.NewValue(ir.OpAlloca)
	a.AllocSize = 8
	a.Align = 4
	b.Append(a)
	k := f.NewValue(ir.OpConst)
	k.Const = 77
	b.Append(k)
	st := f.NewValue(ir.OpStore, a, k)
	st.Size = 4
	b.Append(st)
	ld := f.NewValue(ir.OpLoad, a)
	ld.Size = 4
	b.Append(ld)
	call := f.NewValue(ir.OpCallExt, ld)
	call.Sym = "exit"
	call.NumRet = 1
	b.Append(call)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	res, err := irexec.Run(m, machine.Input{}, nil, nil)
	if err != nil || res.ExitCode != 77 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// countingTracer verifies the hook contract: FnEnter/FnExit pairing, the
// internal calls FnEnter sees through Frame.CallSite with the memory set,
// and Act invocations at instructions and phi moves.
type countingTracer struct {
	enters, exits, execs, phis, calls int
}

func (c *countingTracer) FnEnter(fr *irexec.Frame) {
	c.enters++
	if fr.CallSite != nil && fr.Caller != nil && fr.Mem != nil {
		c.calls++
	}
}
func (c *countingTracer) FnExit(fr *irexec.Frame, ret *ir.Value, _ []uint32) { c.exits++ }
func (c *countingTracer) Act(fr *irexec.Frame, s *irexec.Site, _ []uint32, _ uint32) {
	if s.V.Op == ir.OpPhi {
		c.phis++
	} else {
		c.execs++
	}
}

func TestTracerHooks(t *testing.T) {
	m := ir.NewModule("t")
	// callee(n) -> n+1
	callee := m.NewFunc("callee", 0x2000)
	callee.NumRet = 1
	p := callee.NewParam(isa.EAX, "n")
	cb := callee.NewBlock(0)
	one := callee.NewValue(ir.OpConst)
	one.Const = 1
	cb.Append(one)
	add := callee.NewValue(ir.OpAdd, p, one)
	cb.Append(add)
	cb.Append(callee.NewValue(ir.OpRet, add))

	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst)
	k.Const = 41
	b.Append(k)
	call := f.NewValue(ir.OpCall, k)
	call.Callee = callee
	call.NumRet = 1
	b.Append(call)
	ex := f.NewValue(ir.OpExtract, call)
	ex.Idx = 0
	b.Append(ex)
	exit := f.NewValue(ir.OpCallExt, ex)
	exit.Sym = "exit"
	exit.NumRet = 1
	b.Append(exit)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f

	tr := &countingTracer{}
	res, err := irexec.Run(m, machine.Input{}, nil, tr)
	if err != nil || res.ExitCode != 42 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if tr.enters != 2 {
		t.Errorf("enters = %d, want 2", tr.enters)
	}
	if tr.exits != 1 { // _start exits via external, callee via ret
		t.Errorf("exits = %d, want 1", tr.exits)
	}
	if tr.calls != 1 {
		t.Errorf("calls = %d, want 1", tr.calls)
	}
	if tr.execs == 0 {
		t.Error("no Act events")
	}
}

func TestStepBudget(t *testing.T) {
	// Infinite loop must hit the step budget.
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	b.Succs = []*ir.Block{b}
	b.Preds = []*ir.Block{b}
	b.Append(f.NewValue(ir.OpJmp))
	m.Entry = f
	ip, err := irexec.New(m, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip.MaxSteps = 1000
	if _, err := ip.Run(); !errors.Is(err, irexec.ErrMaxSteps) {
		t.Errorf("err = %v, want ErrMaxSteps", err)
	}
}

// TestMaxStepsBudgets pins the budget's edges on a program of exactly 2
// values (a constant and the exit call): a zero MaxSteps means the default
// budget (not "none"), a budget of 1 stops at the second value, and a
// budget equal to the value count suffices. An exceeded budget fails with
// ErrMaxSteps, naming the function, and counts the value that exceeded it.
func TestMaxStepsBudgets(t *testing.T) {
	cases := []struct {
		budget uint64
		ok     bool
	}{{0, true}, {1, false}, {2, true}, {3, true}}
	for _, c := range cases {
		ip, err := irexec.New(buildExitModule(5), machine.Input{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ip.MaxSteps = c.budget
		res, err := ip.Run()
		switch {
		case c.ok && (err != nil || res.ExitCode != 5 || res.Steps != 2):
			t.Errorf("budget %d: res=%+v err=%v, want exit 5 after 2 values", c.budget, res, err)
		case !c.ok && !errors.Is(err, irexec.ErrMaxSteps):
			t.Errorf("budget %d: err = %v, want ErrMaxSteps", c.budget, err)
		case !c.ok && (ip.Steps != c.budget+1 || !strings.Contains(err.Error(), "_start")):
			t.Errorf("budget %d: steps=%d err=%v, want %d steps and the function named",
				c.budget, ip.Steps, err, c.budget+1)
		}
	}
}

func TestConstOperandsPositionIndependent(t *testing.T) {
	// A value may reference a constant defined later in the block (passes
	// hoist uses above definitions); the operand must still see it.
	m := ir.NewModule("t")
	f := m.NewFunc("_start", 0x1000)
	f.NumRet = 0
	b := f.NewBlock(0)
	k := f.NewValue(ir.OpConst) // NOT appended before its use
	k.Const = 9
	neg := f.NewValue(ir.OpNeg, k)
	b.Append(neg)
	b.Append(k)
	negneg := f.NewValue(ir.OpNeg, neg)
	b.Append(negneg)
	exit := f.NewValue(ir.OpCallExt, negneg)
	exit.Sym = "exit"
	exit.NumRet = 1
	b.Append(exit)
	b.Append(f.NewValue(ir.OpTrap))
	m.Entry = f
	res, err := irexec.Run(m, machine.Input{}, nil, nil)
	if err != nil || res.ExitCode != 9 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
