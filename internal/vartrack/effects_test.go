package vartrack_test

import (
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/core"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/vartrack"
)

// Alignment masks on pointers (and with an inverted-power-of-two constant)
// record the variable's alignment requirement (§4.2.2: "for and
// instructions, we capture the alignment factor").
func TestAlignmentCapture(t *testing.T) {
	src := `
main:
    push ebp
    mov ebp, esp
    subi esp, 64
    lea eax, [ebp-48]
    andi eax, -16            ; align the buffer pointer to 16
    storei4 [eax], 7         ; dereference through the aligned pointer
    load4 eax, [eax]
    addi esp, 64
    pop ebp
    halt
`
	img, err := asm.Assemble("t", src, "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RefineRegSave(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineVarArgs(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineStackRef(); err != nil {
		t.Fatal(err)
	}
	tr := vartrack.NewTracer(p.SPOffsets)
	ip, err := irexec.New(p.Mod, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip.Tr = tr
	if _, err := ip.Run(); err != nil {
		t.Fatal(err)
	}
	f := p.Mod.FuncByName("main")
	found := false
	for _, v := range tr.Result().ByFn[f] {
		if v.Align == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("alignment factor 16 not captured: %v", tr.Result().ByFn[f])
	}
}

// strtok returns a pointer derived from its argument (the extdb DeriveRet
// constraint): writes through the returned pointer must extend the
// original buffer's bounds, and the whole pipeline must keep working.
func TestStrtokDeriveRet(t *testing.T) {
	src := `
extern int strtok(char *s, char *d);
extern int strlen(char *s);
extern int strcpy(char *d, char *s);
int main() {
	char buf[16];
	strcpy(buf, "ab,cd");
	char *tok = (char*)strtok(buf, ",");
	return strlen(tok);      /* "ab" -> 2 */
}`
	img, err := gen.Build(src, gen.GCC12O0, "t")
	if err != nil {
		t.Fatal(err)
	}
	nat, err := machine.Execute(img, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nat.ExitCode != 2 {
		t.Fatalf("native exit = %d", nat.ExitCode)
	}
	p, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	r, err := irexec.Run(p.Mod, machine.Input{}, nil, nil)
	if err != nil || r.ExitCode != 2 {
		t.Fatalf("symbolized: exit %d err %v", r.ExitCode, err)
	}
	// buf's variable must span the strcpy'd string (6 bytes with NUL).
	fr := p.Recovered.Frame("main")
	if fr == nil {
		t.Fatal("no recovered frame")
	}
	var max uint32
	for _, v := range fr.Vars {
		if v.Size > max {
			max = v.Size
		}
	}
	if max < 6 {
		t.Errorf("buf bounds too small (%d); strtok/strcpy effects missing: %v", max, fr)
	}
}
