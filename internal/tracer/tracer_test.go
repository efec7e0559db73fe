package tracer_test

import (
	"reflect"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

func TestTraceRecordsTransfers(t *testing.T) {
	img, err := asm.Assemble("t", `
main:
    pushi 2
    call double
    addi esp, 4
    cmpi eax, 4
    jeq .good
    movi eax, 1
    halt
.good:
    movi eax, 0
    halt
double:
    load4 eax, [esp+4]
    add eax, eax
    ret
`, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.New(img)
	res, err := tr.Run(machine.Input{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	if tr.Inputs != 1 {
		t.Errorf("Inputs = %d", tr.Inputs)
	}
	dblAddr, _ := img.SymAddr("double")
	callSite := img.Entry + isa.InstrSize
	if got := tr.Targets(callSite); !reflect.DeepEqual(got, []uint32{dblAddr}) {
		t.Errorf("call targets = %v, want [%#x]", got, dblAddr)
	}
	rets := 0
	for i, in := range img.Code {
		if in.Op == isa.RET && tr.Ran(obj.AddrOf(i)) {
			rets++
		}
	}
	if rets != 1 {
		t.Errorf("executed rets = %d", rets)
	}
	if tr.Covered() == 0 {
		t.Error("no executed instructions recorded")
	}
}

func TestBuildCFGBlocks(t *testing.T) {
	img, err := asm.Assemble("t", `
main:
    movi eax, 0
    movi ecx, 0
.loop:
    add eax, ecx
    addi ecx, 1
    cmpi ecx, 5
    jlt .loop
    halt
`, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.New(img)
	if _, err := tr.Run(machine.Input{}); err != nil {
		t.Fatal(err)
	}
	cfg := tr.BuildCFG()
	// Blocks: entry (movi/movi), loop body, halt.
	if len(cfg.Blocks) != 3 {
		t.Errorf("blocks = %d, want 3", len(cfg.Blocks))
	}
	// The loop block must have two successors (itself and the halt block).
	loopStart, _ := img.SymAddr("main")
	loop := cfg.Blocks[loopStart+2*16]
	if loop == nil {
		t.Fatal("loop block missing")
	}
	if len(loop.Succs) != 2 {
		t.Errorf("loop succs = %v", loop.Succs)
	}
}

func TestMergeTraces(t *testing.T) {
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
	t1 := tracer.New(img)
	if _, err := t1.Run(machine.Input{Ints: []int32{5}}); err != nil {
		t.Fatal(err)
	}
	t2 := tracer.New(img)
	if _, err := t2.Run(machine.Input{Ints: []int32{-5}}); err != nil {
		t.Fatal(err)
	}
	only1 := t1.Covered()
	t1.Merge(t2)
	if t1.Covered() <= only1 {
		t.Errorf("merge did not add coverage: %d -> %d", only1, t1.Covered())
	}
	if t1.Inputs != 2 {
		t.Errorf("Inputs after merge = %d", t1.Inputs)
	}
	// RunAll behaves like sequential runs.
	t3 := tracer.New(img)
	if err := t3.RunAll([]machine.Input{{Ints: []int32{5}}, {Ints: []int32{-5}}}, 1); err != nil {
		t.Fatal(err)
	}
	if t3.Covered() != t1.Covered() {
		t.Errorf("RunAll coverage %d != merged %d", t3.Covered(), t1.Covered())
	}
}

func TestIndirectJumpTargets(t *testing.T) {
	img, err := asm.Assemble("t", `
.data
tbl: .table .c0, .c1
.text
main:
    pushi 0
    call @input_int
    addi esp, 4
    lea edx, [tbl]
    load4 edx, [edx+eax*4]
    jmpr edx
.c0:
    movi eax, 10
    halt
.c1:
    movi eax, 11
    halt
`, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.New(img)
	if err := tr.RunAll([]machine.Input{
		{Ints: []int32{0}}, {Ints: []int32{1}},
	}, 1); err != nil {
		t.Fatal(err)
	}
	// The jmpr site must have both observed targets.
	found := false
	for i, in := range img.Code {
		if in.Op == isa.JMPR && len(tr.Targets(obj.AddrOf(i))) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("indirect jump targets not merged across inputs")
	}
	cfg := tr.BuildCFG()
	if len(cfg.Blocks) < 3 {
		t.Errorf("blocks = %d", len(cfg.Blocks))
	}
}
