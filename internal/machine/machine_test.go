package machine

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
)

func run(t *testing.T, src string, input Input) (Result, string) {
	t.Helper()
	img, err := asm.Assemble("t", src, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := Execute(img, input, &out)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res, out.String()
}

func TestArithmeticAndHalt(t *testing.T) {
	res, _ := run(t, `
main:
    movi eax, 6
    movi ecx, 7
    mul eax, ecx
    halt
`, Input{})
	if res.ExitCode != 42 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if res.Steps != 4 {
		t.Errorf("steps = %d", res.Steps)
	}
}

func TestStackPushPop(t *testing.T) {
	res, _ := run(t, `
main:
    movi eax, 11
    push eax
    movi eax, 0
    pop ecx
    mov eax, ecx
    halt
`, Input{})
	if res.ExitCode != 11 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestLoadStoreSizes(t *testing.T) {
	res, _ := run(t, `
main:
    movi ecx, -2           ; 0xFFFFFFFE
    mov ebx, esp
    subi ebx, 16
    store1 [ebx], ecx
    load1s eax, [ebx]      ; sign-extended -2
    cmpi eax, -2
    jne .bad
    load1 eax, [ebx]       ; zero-extended 254
    cmpi eax, 254
    jne .bad
    store2 [ebx+4], ecx
    load2s eax, [ebx+4]
    cmpi eax, -2
    jne .bad
    movi eax, 0
    halt
.bad:
    movi eax, 1
    halt
`, Input{})
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestConditionCodes(t *testing.T) {
	// Signed vs unsigned comparisons of -1 and 1.
	res, _ := run(t, `
main:
    movi eax, -1
    movi ecx, 1
    cmp eax, ecx
    jlt .signedok
    movi eax, 1
    halt
.signedok:
    cmp eax, ecx
    ja .unsignedok     ; 0xFFFFFFFF > 1 unsigned
    movi eax, 2
    halt
.unsignedok:
    movi eax, 0
    halt
`, Input{})
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestSetCC(t *testing.T) {
	res, _ := run(t, `
main:
    movi eax, 5
    cmpi eax, 5
    seteq ecx
    cmpi eax, 6
    setlt edx
    mov eax, ecx
    shli eax, 1
    or eax, edx
    halt
`, Input{})
	if res.ExitCode != 3 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestCallRet(t *testing.T) {
	res, _ := run(t, `
main:
    pushi 20
    pushi 22
    call add2
    addi esp, 8
    halt
add2:
    load4 eax, [esp+4]
    load4 ecx, [esp+8]
    add eax, ecx
    ret
`, Input{})
	if res.ExitCode != 42 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestRecursionFactorial(t *testing.T) {
	res, _ := run(t, `
main:
    pushi 6
    call fact
    addi esp, 4
    halt
fact:
    load4 eax, [esp+4]
    cmpi eax, 1
    jgt .rec
    movi eax, 1
    ret
.rec:
    push eax
    subi eax, 1
    push eax
    call fact
    addi esp, 4
    pop ecx
    mul eax, ecx
    ret
`, Input{})
	if res.ExitCode != 720 {
		t.Errorf("6! = %d", res.ExitCode)
	}
}

func TestJumpTable(t *testing.T) {
	src := `
.data
tbl: .table .c0, .c1, .c2
.text
main:
    movi ecx, 1
    lea edx, [tbl]
    load4 edx, [edx+ecx*4]
    jmpr edx
.c0:
    movi eax, 100
    halt
.c1:
    movi eax, 101
    halt
.c2:
    movi eax, 102
    halt
`
	res, _ := run(t, src, Input{})
	if res.ExitCode != 101 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestMovLo8FalseDep(t *testing.T) {
	res, _ := run(t, `
main:
    movi eax, 0x1200
    movi ecx, 0x34
    movlo8 eax, ecx
    halt
`, Input{})
	if uint32(res.ExitCode) != 0x1234 {
		t.Errorf("exit = %#x", uint32(res.ExitCode))
	}
}

func TestExternalPrintf(t *testing.T) {
	src := `
.data
fmt: .asciz "n=%d s=%s c=%c u=%u x=%x%%\n"
str: .asciz "abc"
.text
main:
    pushi 255
    pushi 255
    pushi 33
    pushi str
    pushi -7
    pushi fmt
    call @printf
    addi esp, 24
    movi eax, 0
    halt
`
	_, out := run(t, src, Input{})
	want := "n=-7 s=abc c=! u=255 x=ff%\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestExternalMemAndStrings(t *testing.T) {
	src := `
.data
src: .asciz "hello"
dst: .space 16
.text
main:
    pushi 6
    pushi src
    pushi dst
    call @memcpy
    addi esp, 12
    pushi dst
    call @strlen
    addi esp, 4
    halt
`
	res, _ := run(t, src, Input{})
	if res.ExitCode != 5 {
		t.Errorf("strlen = %d", res.ExitCode)
	}
}

func TestExternalMalloc(t *testing.T) {
	src := `
main:
    pushi 10
    call @malloc
    addi esp, 4
    mov ebx, eax          ; p
    pushi 10
    pushi 65
    push ebx
    call @memset
    addi esp, 12
    load1 eax, [ebx+9]
    halt
`
	res, _ := run(t, src, Input{})
	if res.ExitCode != 65 {
		t.Errorf("byte = %d", res.ExitCode)
	}
}

func TestExternalStrtok(t *testing.T) {
	src := `
.data
s:   .asciz "a,bb,ccc"
sep: .asciz ","
.text
main:
    pushi sep
    pushi s
    call @strtok
    addi esp, 8
    push eax
    call @puts
    addi esp, 4
    pushi sep
    pushi 0
    call @strtok
    addi esp, 8
    push eax
    call @puts
    addi esp, 4
    movi eax, 0
    halt
`
	_, out := run(t, src, Input{})
	if out != "a\nbb\n" {
		t.Errorf("output = %q", out)
	}
}

func TestInputs(t *testing.T) {
	src := `
main:
    pushi 0
    call @input_int
    addi esp, 4
    mov ebx, eax
    pushi 0
    call @input_str
    addi esp, 4
    push eax
    call @strlen
    addi esp, 4
    add eax, ebx
    halt
`
	res, _ := run(t, src, Input{Ints: []int32{40}, Strs: []string{"xy"}})
	if res.ExitCode != 42 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestExitViaExternal(t *testing.T) {
	res, _ := run(t, `
main:
    pushi 7
    call @exit
    movi eax, 9
    halt
`, Input{})
	if res.ExitCode != 7 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	img, err := asm.Assemble("t", `
main:
    movi eax, 1
    movi ecx, 0
    div eax, ecx
    halt
`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(img, Input{}, nil); err == nil {
		t.Error("division by zero did not trap")
	}
}

func TestNullDerefFaults(t *testing.T) {
	img, err := asm.Assemble("t", `
main:
    movi eax, 0
    load4 ecx, [eax]
    halt
`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(img, Input{}, nil); err == nil {
		t.Error("null dereference did not fault")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	img, err := asm.Assemble("t", `
main:
    jmp main
`, "")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img, Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 100
	if err := m.Run(); err != ErrMaxSteps {
		t.Errorf("err = %v", err)
	}
}

func TestTraceHookEvents(t *testing.T) {
	img, err := asm.Assemble("t", `
main:
    call f
    movi eax, 0
    cmpi eax, 0
    jeq .done
    nop
.done:
    halt
f:
    ret
`, "")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img, Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var events []Transfer
	m.BlockHook = func(_, _ uint32, tr Transfer, term bool) {
		if term {
			events = append(events, tr)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var kinds []TransferKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []TransferKind{TransferCall, TransferRet, TransferBranch}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if !events[2].Taken {
		t.Error("branch should be taken")
	}
	fAddr, _ := img.SymAddr("f")
	if events[0].To != fAddr {
		t.Errorf("call target = %#x, want %#x", events[0].To, fAddr)
	}
}

func TestCyclesMonotone(t *testing.T) {
	// Memory ops must cost more than ALU ops: two programs with the same
	// step count but different instruction mix.
	resALU, _ := run(t, `
main:
    movi eax, 1
    movi ecx, 2
    add eax, ecx
    halt
`, Input{})
	resMem, _ := run(t, `
main:
    movi eax, 1
    push eax
    pop ecx
    halt
`, Input{})
	if resALU.Steps != resMem.Steps {
		t.Fatalf("step mismatch: %d vs %d", resALU.Steps, resMem.Steps)
	}
	if resMem.Cycles <= resALU.Cycles {
		t.Errorf("memory traffic not costed: %d <= %d", resMem.Cycles, resALU.Cycles)
	}
}

// Property: machine 32-bit arithmetic agrees with Go's uint32/int32
// semantics for every ALU op.
func TestALUMatchesGo(t *testing.T) {
	ops := []struct {
		op isa.Op
		f  func(a, b uint32) uint32
	}{
		{isa.ADD, func(a, b uint32) uint32 { return a + b }},
		{isa.SUB, func(a, b uint32) uint32 { return a - b }},
		{isa.AND, func(a, b uint32) uint32 { return a & b }},
		{isa.OR, func(a, b uint32) uint32 { return a | b }},
		{isa.XOR, func(a, b uint32) uint32 { return a ^ b }},
		{isa.SHL, func(a, b uint32) uint32 { return a << (b & 31) }},
		{isa.SHR, func(a, b uint32) uint32 { return a >> (b & 31) }},
		{isa.SAR, func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }},
		{isa.MUL, func(a, b uint32) uint32 { return a * b }},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, bv := uint32(r.Uint64()), uint32(r.Uint64())
		o := ops[r.Intn(len(ops))]
		b := asm.NewBuilder("t")
		b.Func("main")
		b.MovI(isa.EAX, int32(a))
		b.MovI(isa.ECX, int32(bv))
		b.Bin(o.op, isa.EAX, isa.ECX)
		b.Halt()
		img, err := b.Link("main")
		if err != nil {
			return false
		}
		res, err := Execute(img, Input{}, nil)
		if err != nil {
			return false
		}
		return uint32(res.ExitCode) == o.f(a, bv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// Property: signed comparison conditions agree with Go's int32 ordering.
func TestCondMatchesGo(t *testing.T) {
	conds := []struct {
		c isa.Cond
		f func(a, b int32) bool
	}{
		{isa.CondEQ, func(a, b int32) bool { return a == b }},
		{isa.CondNE, func(a, b int32) bool { return a != b }},
		{isa.CondLT, func(a, b int32) bool { return a < b }},
		{isa.CondLE, func(a, b int32) bool { return a <= b }},
		{isa.CondGT, func(a, b int32) bool { return a > b }},
		{isa.CondGE, func(a, b int32) bool { return a >= b }},
		{isa.CondB, func(a, b int32) bool { return uint32(a) < uint32(b) }},
		{isa.CondBE, func(a, b int32) bool { return uint32(a) <= uint32(b) }},
		{isa.CondA, func(a, b int32) bool { return uint32(a) > uint32(b) }},
		{isa.CondAE, func(a, b int32) bool { return uint32(a) >= uint32(b) }},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, bv := int32(r.Uint64()), int32(r.Uint64())
		if r.Intn(4) == 0 {
			bv = a // exercise equality
		}
		co := conds[r.Intn(len(conds))]
		b := asm.NewBuilder("t")
		b.Func("main")
		b.MovI(isa.EAX, a)
		b.MovI(isa.ECX, bv)
		b.Cmp(isa.EAX, isa.ECX)
		b.Set(co.c, isa.EAX)
		b.Halt()
		img, err := b.Link("main")
		if err != nil {
			return false
		}
		res, err := Execute(img, Input{}, nil)
		if err != nil {
			return false
		}
		want := int32(0)
		if co.f(a, bv) {
			want = 1
		}
		return res.ExitCode == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory load/store round-trips for all sizes at random addresses
// in the data region.
func TestMemoryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mem := NewMemory()
		addr := isa.DataBase + uint32(r.Intn(1<<20))
		size := []uint8{1, 2, 4}[r.Intn(3)]
		v := uint32(r.Uint64())
		if err := mem.Store(addr, v, size); err != nil {
			return false
		}
		got, err := mem.Load(addr, size)
		if err != nil {
			return false
		}
		mask := uint32(0xFFFFFFFF)
		if size < 4 {
			mask = 1<<(8*size) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	mem := NewMemory()
	addr := isa.DataBase + pageSize - 2 // straddles a page boundary
	if err := mem.Store(addr, 0xAABBCCDD, 4); err != nil {
		t.Fatal(err)
	}
	v, err := mem.Load(addr, 4)
	if err != nil || v != 0xAABBCCDD {
		t.Errorf("cross-page load = %#x, %v", v, err)
	}
}

func TestCountPrintfArgs(t *testing.T) {
	cases := map[string]int{
		"":           0,
		"hello":      0,
		"%d":         1,
		"%d %s %c":   3,
		"100%%":      0,
		"%d%%%u":     2,
		"trailing %": 0,
	}
	for format, want := range cases {
		if got := CountPrintfArgs(format); got != want {
			t.Errorf("CountPrintfArgs(%q) = %d, want %d", format, got, want)
		}
	}
}

func TestUnknownExternalRejected(t *testing.T) {
	img := &obj.Image{
		Code: []isa.Instr{
			{Op: isa.CALL, Imm: int32(extBase())},
			{Op: isa.HALT},
		},
		Entry:   isa.CodeBase,
		Externs: map[uint32]string{isa.ExtBase: "no_such_fn"},
	}
	if _, err := Execute(img, Input{}, nil); err == nil ||
		!strings.Contains(err.Error(), "not implemented") {
		t.Errorf("err = %v", err)
	}
}

// extBase returns isa.ExtBase as a non-constant so it can be converted to
// int32 without a compile-time overflow.
func extBase() uint32 { return isa.ExtBase }
