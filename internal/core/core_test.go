package core_test

import (
	"bytes"
	"errors"
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

const pipelineSrc = `
extern int printf(char *fmt, ...);
extern int input_int(int i);

int gcd(int a, int b) {
	while (b != 0) {
		int t = a % b;
		a = b;
		b = t;
	}
	return a;
}

int main() {
	int x = input_int(0), y = input_int(1);
	printf("gcd=%d\n", gcd(x, y));
	return 0;
}
`

func TestPipelineEndToEnd(t *testing.T) {
	img, err := gen.Build(pipelineSrc, gen.GCC12O3, "gcd")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []machine.Input{
		{Ints: []int32{54, 24}},
		{Ints: []int32{17, 5}},
	}
	p, err := core.LiftBinary(img, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace == nil || p.CFG == nil || p.Rec == nil || p.Mod == nil {
		t.Fatal("pipeline state incomplete")
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	if p.RegClasses == nil || p.SPOffsets == nil || p.VarResult == nil || p.Recovered == nil {
		t.Error("refinement state incomplete")
	}
	stages := len(p.Times)
	out, _, err := p.Recompile("gcd-rec")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Times) != stages {
		t.Errorf("Recompile recorded stage times: %v", p.Times[stages:])
	}
	for _, input := range inputs {
		var nat, rec bytes.Buffer
		n, err := machine.Execute(img, input, &nat)
		if err != nil {
			t.Fatal(err)
		}
		r, err := machine.Execute(out, input, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if n.ExitCode != r.ExitCode || nat.String() != rec.String() {
			t.Errorf("input %v: %d/%q vs %d/%q", input.Ints,
				n.ExitCode, nat.String(), r.ExitCode, rec.String())
		}
	}
}

// The WYTIWYG guarantee: untraced paths trap in the recompiled binary too,
// and incremental re-lifting with a covering input fixes them (§7.2).
func TestIncrementalRelifting(t *testing.T) {
	src := `
extern int input_int(int i);
int main() {
	if (input_int(0) > 100) return 11;
	return 22;
}`
	img, err := gen.Build(src, gen.GCC12O3, "t")
	if err != nil {
		t.Fatal(err)
	}
	// First lift: only the low branch traced.
	p1, err := core.LiftBinary(img, []machine.Input{{Ints: []int32{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Refine(); err != nil {
		t.Fatal(err)
	}
	rec1, _, err := p1.Recompile("rec1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := machine.Execute(rec1, machine.Input{Ints: []int32{500}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != 254 {
		t.Errorf("untraced path: exit %d, want the 254 trap marker", r.ExitCode)
	}
	// Re-lift with covering inputs: both branches work.
	p2, err := core.LiftBinary(img, []machine.Input{
		{Ints: []int32{1}}, {Ints: []int32{500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Refine(); err != nil {
		t.Fatal(err)
	}
	rec2, _, err := p2.Recompile("rec2")
	if err != nil {
		t.Fatal(err)
	}
	for in, want := range map[int32]int32{1: 22, 500: 11} {
		r, err := machine.Execute(rec2, machine.Input{Ints: []int32{in}}, nil)
		if err != nil || r.ExitCode != want {
			t.Errorf("input %d: exit %d err %v, want %d", in, r.ExitCode, err, want)
		}
	}
}

// The interpreter's trap error surfaces through refinement runs when an
// input escapes coverage.
func TestRefinementInputMustBeCovered(t *testing.T) {
	src := `
extern int input_int(int i);
int main() {
	if (input_int(0) > 0) return 1;
	return 2;
}`
	img, err := gen.Build(src, gen.GCC12O3, "t")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, []machine.Input{{Ints: []int32{1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Sneak in an uncovered input before refining.
	p.Inputs = append(p.Inputs, machine.Input{Ints: []int32{-1}})
	err = p.RefineRegSave()
	if err == nil {
		t.Fatal("refinement accepted an uncovered input")
	}
	if !errors.Is(err, irexec.ErrTrap) {
		t.Errorf("err = %v, want a trap", err)
	}
}

// Within one pipeline, stage events arrive sequentially: each stage's
// start and finish pair, in Pipeline.Times order. The observer here is a
// plain slice append; the race detector flags any concurrent delivery.
func TestObserverEventsFollowTimes(t *testing.T) {
	img, err := gen.Build(pipelineSrc, gen.GCC12O3, "gcd")
	if err != nil {
		t.Fatal(err)
	}
	var events []core.StageEvent
	p, err := core.LiftBinaryOpts(img, []machine.Input{{Ints: []int32{54, 24}}, {Ints: []int32{17, 5}}},
		core.Options{Jobs: 2, Lint: core.LintWarn, VSA: true, Types: true, StaticRecover: true,
			Observer: func(e core.StageEvent) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*len(p.Times) {
		t.Fatalf("%d events for %d stages: %v", len(events), len(p.Times), events)
	}
	for i, st := range p.Times {
		start, finish := events[2*i], events[2*i+1]
		if start != (core.StageEvent{Stage: st.Stage, Action: "start"}) ||
			finish != (core.StageEvent{Stage: st.Stage, Action: "finish"}) {
			t.Errorf("stage %d (%s): events %v, %v", i, st.Stage, start, finish)
		}
	}
}
