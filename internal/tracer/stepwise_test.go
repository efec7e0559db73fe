package tracer_test

import (
	"fmt"
	"slices"
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// refTrace holds the stepwise reference's observations in plain maps.
type refTrace struct {
	Executed    map[uint32]bool            // every instruction that ran
	CallTargets map[uint32]map[uint32]bool // call site -> lifted callees
	ExtCalls    map[uint32]string          // call site -> external name
	JumpTargets map[uint32]map[uint32]bool // jump/branch site -> destinations
	RetSites    map[uint32]bool            // executed rets
}

// stepwiseTrace is the independent reference for Trace.RunAll: it runs
// every input through a manual Step loop and derives each control transfer
// from the decoded instruction at the executed pc, with the target read
// from the instruction's operands (calls) or the next pc (jumps and
// branches). It shares nothing with the tracer.
func stepwiseTrace(t *testing.T, img *obj.Image, inputs []machine.Input) *refTrace {
	t.Helper()
	ref := &refTrace{
		Executed:    make(map[uint32]bool),
		CallTargets: make(map[uint32]map[uint32]bool),
		ExtCalls:    make(map[uint32]string),
		JumpTargets: make(map[uint32]map[uint32]bool),
		RetSites:    make(map[uint32]bool),
	}
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

// sortedKeys returns a reference target set in ascending order.
func sortedKeys(s map[uint32]bool) []uint32 {
	var out []uint32
	for a := range s {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// TestTraceMatchesStepwise requires the tracer, which observes superblock
// dispatch through BlockHook, to report through its methods exactly what
// the stepwise reference derives, instruction by instruction, for every
// corpus program under every profile and its trace inputs (only mcf under
// -short).
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
				if err := got.RunAll(p.Inputs(), 1); err != nil {
					t.Fatalf("trace: %v", err)
				}
				want := stepwiseTrace(t, img, p.Inputs())
				if got.Covered() != len(want.Executed) {
					t.Errorf("Covered = %d, reference %d", got.Covered(), len(want.Executed))
				}
				for i := range img.Code {
					pc := obj.AddrOf(i)
					op := img.Code[i].Op
					var wantTargets []uint32
					var wantExt []string
					switch op {
					case isa.CALL, isa.CALLR:
						wantTargets = sortedKeys(want.CallTargets[pc])
						if name, ok := want.ExtCalls[pc]; ok {
							wantExt = []string{name}
						}
					case isa.JMP, isa.JMPR, isa.JCC:
						wantTargets = sortedKeys(want.JumpTargets[pc])
					}
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"Ran", got.Ran(pc), want.Executed[pc]},
						{"Targets", got.Targets(pc), wantTargets},
						{"ExtCall", got.ExtCall(pc), wantExt},
						{"ret", got.Ran(pc) && op == isa.RET, want.RetSites[pc]},
					} {
						// Printed, an empty list and a nil one compare equal.
						if fmt.Sprint(f.got) != fmt.Sprint(f.want) {
							t.Fatalf("%s at %#x (%v) = %v, reference %v", f.name, pc, op, f.got, f.want)
						}
					}
				}
			})
		}
	}
}
