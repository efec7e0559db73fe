package machine

import (
	"errors"
	"strings"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/extdb"
	"wytiwyg/internal/isa"
)

// SYS 0 is the raw exit syscall (status in eax); other numbers are
// rejected.
func TestSyscallExit(t *testing.T) {
	res, _ := run(t, `
main:
    movi eax, 17
    sys 0
    halt
`, Input{})
	if res.ExitCode != 17 {
		t.Errorf("exit = %d, want 17", res.ExitCode)
	}
}

func TestSyscallUnknown(t *testing.T) {
	img, err := asm.Assemble("t", "main:\n\tsys 9\n\thalt\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(img, Input{}, nil); err == nil ||
		!strings.Contains(err.Error(), "syscall") {
		t.Errorf("err = %v, want unknown-syscall error", err)
	}
}

// TEST sets ZF from the AND of its operands and clears the
// subtraction-style flags.
func TestTestInstructionFlags(t *testing.T) {
	res, _ := run(t, `
main:
    movi eax, 12
    movi ecx, 3
    test eax, ecx          ; 12 & 3 = 0 -> ZF
    seteq edx              ; 1
    movi ecx, 4
    test eax, ecx          ; 12 & 4 != 0
    setne ebx              ; 1
    add edx, ebx
    mov eax, edx
    push eax
    call @exit
    halt
`, Input{})
	if res.ExitCode != 2 {
		t.Errorf("exit = %d, want 2", res.ExitCode)
	}
}

// PC and Halted track stepping.
func TestStepAccessors(t *testing.T) {
	img, err := asm.Assemble("t", "main:\n\tmovi eax, 1\n\tmovi eax, 2\n\thalt\n", "")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img, Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.PC() != isa.CodeBase {
		t.Errorf("initial pc = %#x", m.PC())
	}
	if m.Halted() {
		t.Error("halted before first step")
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if m.PC() != isa.CodeBase+isa.InstrSize {
		t.Errorf("pc after one step = %#x", m.PC())
	}
	for !m.Halted() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// The simulated libc and the signature database describe the same
// functions: an implemented function missing from the database is rejected
// by the lifter, and a described one missing here faults at run time.
func TestDBCoversLibsim(t *testing.T) {
	for name := range extHandlers {
		sig, ok := extdb.Lookup(name)
		if !ok {
			t.Errorf("external %q missing from the database", name)
			continue
		}
		if sig.Name != name {
			t.Errorf("signature name mismatch: %q vs %q", sig.Name, name)
		}
	}
	for name := range extdb.DB {
		if _, ok := extHandlers[name]; !ok {
			t.Errorf("database entry %q has no libc implementation", name)
		}
	}
}

// Memory faults carry the address and cause, and unwrap as *Fault.
func TestFaultError(t *testing.T) {
	img, err := asm.Assemble("t", "main:\n\tmovi eax, 8\n\tload4 ecx, [eax]\n\thalt\n", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(img, Input{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Addr != 8 || !strings.Contains(f.Error(), "0x8") {
		t.Errorf("fault = %v", f)
	}
}
