package core_test

import (
	"strings"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

// A binary that faults during tracing surfaces the fault as a lift error:
// WYTIWYG can only lift what it can execute.
func TestLiftBinaryTracingFault(t *testing.T) {
	src := `
main:
    movi eax, 0
    load4 ecx, [eax]     ; null deref
    halt
`
	img, err := asm.Assemble("crash", src, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.LiftBinary(img, nil)
	if err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("err = %v, want tracing error", err)
	}
}

// Inputs that diverge before reaching shared code still merge into one
// CFG; refinement must observe both paths.
func TestLiftBinaryMultipleInputs(t *testing.T) {
	src := `
main:
    push ebp
    mov ebp, esp
    call @input_int
    cmpi eax, 5
    jlt .small
    muli eax, 2
    jmp .out
.small:
    addi eax, 100
.out:
    pop ebp
    push eax
    call @exit
    halt
`
	img, err := asm.Assemble("branchy", src, "")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []machine.Input{
		{Ints: []int32{3}},  // takes .small
		{Ints: []int32{50}}, // takes the multiply path
	}
	p, err := core.LiftBinary(img, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	// Both sides of the branch must be present (no traps on either path).
	for i, want := range []int32{103, 100} {
		r, err := irexec.Run(p.Mod, inputs[i], nil, nil)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if r.ExitCode != want {
			t.Errorf("input %d: exit = %d, want %d", i, r.ExitCode, want)
		}
	}
}

// The variadic-call refinement applies observations taken during the
// saved-register refinement's replay, so calling it first is a stage-order
// error: one clear error naming the order, not one "never observed" error
// per raw call site. In order, the same stages succeed.
func TestVarArgsBeforeRegSave(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int main() {
	printf("%d\n", 1);
	printf("%d %d\n", 2, 3);
	return 0;
}`
	img, err := gen.Build(src, gen.GCC12O3, "t")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = p.RefineVarArgs()
	if err == nil {
		t.Fatal("RefineVarArgs before RefineRegSave succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "regsave → varargs") ||
		strings.Contains(msg, "never observed") {
		t.Errorf("err = %v, want a stage-order error", err)
	}
	if err := p.RefineRegSave(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineVarArgs(); err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op == ir.OpCallExtRaw {
					t.Errorf("%s: raw variadic call left after varargs: %s", f.Name, v)
				}
			}
		}
	}
}

// Refine rewrites the module in place, so it runs once per pipeline: a
// second call is a stage-order error, not a silent no-op or a second
// classification of the already rewritten module.
func TestRefineTwice(t *testing.T) {
	img, err := gen.Build(pipelineSrc, gen.GCC12O3, "gcd")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, []machine.Input{{Ints: []int32{54, 24}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	err = p.Refine()
	if err == nil {
		t.Fatal("second Refine succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "already ran") || !strings.Contains(msg, "regsave → varargs") {
		t.Errorf("err = %v, want a stage-order error", err)
	}
}
