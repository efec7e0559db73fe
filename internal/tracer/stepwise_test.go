package tracer_test

import (
	"reflect"
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// stepwiseTrace is the independent reference for Trace.RunAll: it runs
// every input through a manual Step loop and derives each control transfer
// from the decoded instruction at the executed pc, with the target read
// from the instruction's operands (calls) or the next pc (jumps and
// branches). It shares nothing with the tracer but the Trace maps.
func stepwiseTrace(t *testing.T, img *obj.Image, inputs []machine.Input) *tracer.Trace {
	t.Helper()
	ref := tracer.New(img)
	add := func(m map[uint32]map[uint32]bool, from, to uint32) {
		if m[from] == nil {
			m[from] = make(map[uint32]bool)
		}
		m[from][to] = true
	}
	for n, input := range inputs {
		m, err := machine.New(img, input, nil)
		if err != nil {
			t.Fatalf("input %d: %v", n, err)
		}
		cov := make([]bool, len(img.Code))
		for !m.Halted() {
			pc, regs := m.PC(), m.Regs
			if err := m.Step(); err != nil {
				t.Fatalf("input %d: step at 0x%x: %v", n, pc, err)
			}
			i := (pc - isa.CodeBase) / isa.InstrSize
			cov[i] = true
			in := &img.Code[i]
			switch in.Op {
			case isa.CALL, isa.CALLR:
				target := uint32(in.Imm)
				if in.Op == isa.CALLR {
					target = regs[in.Src]
				}
				if isa.IsExtAddr(target) {
					ref.ExtCalls[pc], _ = img.ExtName(target)
				} else {
					add(ref.CallTargets, pc, target)
				}
			case isa.JMP, isa.JMPR, isa.JCC:
				add(ref.JumpTargets, pc, m.PC())
			case isa.RET:
				ref.RetSites[pc] = true
			}
		}
		for i, hit := range cov {
			if hit {
				ref.Executed[obj.AddrOf(i)] = true
			}
		}
	}
	return ref
}

// TestTraceMatchesStepwise requires the tracer, which observes superblock
// dispatch through BlockHook, to record exactly what the stepwise
// reference derives, for every corpus program under every profile and its
// trace inputs (only mcf under -short).
func TestTraceMatchesStepwise(t *testing.T) {
	for _, p := range progs.All {
		if testing.Short() && p.Name != "mcf" {
			continue
		}
		for _, prof := range gen.Profiles {
			p, prof := p, prof
			t.Run(p.Name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				img, err := gen.Build(p.Src, prof, p.Name)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				got := tracer.New(img)
				if err := got.RunAll(p.Inputs(), nil); err != nil {
					t.Fatalf("trace: %v", err)
				}
				want := stepwiseTrace(t, img, p.Inputs())
				for _, f := range []struct {
					name      string
					got, want any
				}{
					{"Executed", got.Executed, want.Executed},
					{"CallTargets", got.CallTargets, want.CallTargets},
					{"ExtCalls", got.ExtCalls, want.ExtCalls},
					{"JumpTargets", got.JumpTargets, want.JumpTargets},
					{"RetSites", got.RetSites, want.RetSites},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s differs from the stepwise reference", f.name)
					}
				}
			})
		}
	}
}
