package bench

import (
	"fmt"
	"io"
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/typerec"
	"wytiwyg/internal/vsa"
)

// Differential validation of the type-recovery stage: a committed slot
// type is a width contract — every concrete access that lands inside the
// slot at runtime must hit one of the claimed scalar cells exactly. The
// recorder keeps the live slot activations (pushed when the alloca
// executes, popped when its frame returns) and checks every executed
// load/store against every live claimed slot it falls into, including
// accesses made from callees through escaped pointers — the accesses the
// per-function inference never attributed. A single width mismatch is an
// unsound claim, the one failure mode the commit rule must never allow.

// liveSlot is one claimed slot's runtime activation.
type liveSlot struct {
	v    *ir.Value // the alloca
	base uint64
	size uint64
	t    *layout.Type
}

// typedRecorder checks the width contract during execution.
type typedRecorder struct {
	slotType map[*ir.Value]*layout.Type // allocas with a committed claim
	accWidth map[*ir.Value]int64        // load/store → access width
	live     map[*irexec.Frame][]liveSlot

	checked    int
	violations []string
}

func (r *typedRecorder) FnEnter(fr *irexec.Frame) {}
func (r *typedRecorder) FnExit(fr *irexec.Frame, ret *ir.Value, _ []uint32) {
	delete(r.live, fr)
}
func (r *typedRecorder) Act(fr *irexec.Frame, s *irexec.Site, args []uint32, result uint32) {
	v := s.V
	if t, ok := r.slotType[v]; ok {
		r.live[fr] = append(r.live[fr], liveSlot{
			v: v, base: uint64(result), size: uint64(v.AllocSize), t: t,
		})
		return
	}
	sz, ok := r.accWidth[v]
	if !ok {
		return
	}
	addr := uint64(args[0])
	// Scan every live activation, not just the executing frame's: an
	// access through an escaped pointer runs in a callee but lands in a
	// caller's slot, and the claim must hold there too.
	for _, slots := range r.live {
		for _, s := range slots {
			if addr < s.base || addr >= s.base+s.size {
				continue
			}
			r.checked++
			if !s.t.AdmitsAccess(int64(addr-s.base), sz) {
				r.violations = append(r.violations, fmt.Sprintf(
					"UNSOUND type claim in %s: %d-byte access %v at %s+%d, claimed %s",
					s.v.Block.Func.Name, sz, v, s.v.Name, addr-s.base, s.t))
			}
		}
	}
}

// typedClaims runs the type-recovery inference exactly as the pipeline
// stage does (per-function analysis, then cross-call unification) and
// returns the committed slot claims plus a recorder primed for the
// module's accesses.
func typedClaims(m *ir.Module) (*typedRecorder, int) {
	results := make([]*typerec.FuncResult, len(m.Funcs))
	for i, f := range m.Funcs {
		results[i] = typerec.AnalyzeFunc(vsa.Analyze(f))
	}
	typerec.Unify(m, results)
	rec := &typedRecorder{
		slotType: make(map[*ir.Value]*layout.Type),
		accWidth: make(map[*ir.Value]int64),
		live:     make(map[*irexec.Frame][]liveSlot),
	}
	committed := 0
	for _, r := range results {
		for _, a := range r.Allocas() {
			if t := r.Slots[a]; t.Committed() {
				rec.slotType[a] = t
				committed++
			}
		}
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op == ir.OpLoad || v.Op == ir.OpStore {
					sz := int64(v.Size)
					if sz == 0 {
						sz = 4
					}
					rec.accWidth[v] = sz
				}
			}
		}
	}
	return rec, committed
}

// runTyped executes the module under the recorder for each input (one
// empty-input run when none are given).
func runTyped(t *testing.T, m *ir.Module, inputs []machine.Input, name string) *typedRecorder {
	t.Helper()
	rec, _ := typedClaims(m)
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	for i := range inputs {
		ip, err := irexec.New(m, inputs[i], io.Discard)
		if err != nil {
			t.Fatalf("%s: interp: %v", name, err)
		}
		ip.Tr = rec
		if _, err := ip.Run(); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
	}
	return rec
}

func TestTypedDifferentialNoUnsoundWidthClaims(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	totalChecked, totalCommitted := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		src := generate(seed)
		prof := gen.Profiles[int(seed)%len(gen.Profiles)]
		img, err := gen.Build(src, prof, "typedfuzz")
		if err != nil {
			t.Fatalf("seed %d: compile (%s): %v", seed, prof.Name, err)
		}
		p, err := core.LiftBinary(img, nil)
		if err != nil {
			t.Fatalf("seed %d: lift: %v", seed, err)
		}
		if err := p.Refine(); err != nil {
			t.Fatalf("seed %d: refine: %v", seed, err)
		}
		rec, committed := typedClaims(p.Mod)
		totalCommitted += committed
		ip, err := irexec.New(p.Mod, machine.Input{}, io.Discard)
		if err != nil {
			t.Fatalf("seed %d: interp: %v", seed, err)
		}
		ip.Tr = rec
		if _, err := ip.Run(); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		for _, viol := range rec.violations {
			t.Errorf("seed %d: %s\n%s", seed, viol, src)
		}
		totalChecked += rec.checked
	}
	if totalChecked == 0 || totalCommitted == 0 {
		t.Fatalf("differential corpus checked %d in-slot accesses against %d committed claims; want both > 0",
			totalChecked, totalCommitted)
	}
	t.Logf("checked %d in-slot accesses against %d committed slot claims", totalChecked, totalCommitted)
}

// The width contract must also hold on the real benchmark corpus, where
// arrays, structs and pointer tables give the inference real aggregates
// to commit.
func TestTypedDifferentialBenchCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the random-program differential in short mode")
	}
	totalChecked := 0
	for _, prog := range progs.All[:3] {
		p := Scaled(prog, 3)
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		pl, err := core.LiftBinary(img, p.Inputs())
		if err != nil {
			t.Fatalf("%s: lift: %v", p.Name, err)
		}
		if err := pl.Refine(); err != nil {
			t.Fatalf("%s: refine: %v", p.Name, err)
		}
		rec := runTyped(t, pl.Mod, pl.Inputs, p.Name)
		for _, viol := range rec.violations {
			t.Errorf("%s: %s", p.Name, viol)
		}
		totalChecked += rec.checked
	}
	if totalChecked == 0 {
		t.Fatal("no in-slot accesses checked against committed claims")
	}
	t.Logf("checked %d in-slot accesses", totalChecked)
}
