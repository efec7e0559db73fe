package machine

import (
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/isa"
)

// benchLoop is a self-contained infinite loop mixing the instruction classes
// the emulator executes most: ALU ops, a store, a load, a compare and a
// jump. BenchmarkStep drives it one instruction at a time.
const benchLoop = `
main:
    mov ebx, esp
    subi ebx, 64
.loop:
    addi eax, 1
    mov ecx, eax
    shli ecx, 3
    store4 [ebx], ecx
    load4 edx, [ebx]
    add edx, eax
    cmpi eax, 0
    jmp .loop
`

// BenchmarkStep measures the per-instruction cost of the emulator's
// fetch/dispatch/execute cycle over a representative instruction mix.
func BenchmarkStep(b *testing.B) {
	img, err := asm.Assemble("bench", benchLoop, "")
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(img, Input{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	m.MaxSteps = ^uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures the same loop through Run's batched dispatch (no
// hooks attached), amortizing the per-step loop overhead.
func BenchmarkRun(b *testing.B) {
	img, err := asm.Assemble("bench", benchLoop, "")
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(img, Input{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	m.MaxSteps = 0 // re-armed each iteration below
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		m.MaxSteps = m.Steps + 4096
		if err := m.Run(); err != ErrMaxSteps {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBlockHook is BenchmarkRun with the tracer's observer
// attached: a BlockHook that marks each reported block's instructions in a
// coverage bitmap, as tracer.Run does.
func BenchmarkRunBlockHook(b *testing.B) {
	img, err := asm.Assemble("bench", benchLoop, "")
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(img, Input{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	cov := make([]bool, len(img.Code))
	m.BlockHook = func(start, end uint32, _ Transfer, _ bool) {
		for i := (start - isa.CodeBase) / isa.InstrSize; i <= (end-isa.CodeBase)/isa.InstrSize; i++ {
			cov[i] = true
		}
	}
	m.MaxSteps = 0 // re-armed each iteration below
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4096 {
		m.MaxSteps = m.Steps + 4096
		if err := m.Run(); err != ErrMaxSteps {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemLoad measures 4-byte aligned loads that stay within one page —
// the overwhelmingly common case on the emulator's hot path.
func BenchmarkMemLoad(b *testing.B) {
	m := NewMemory()
	if err := m.Store(0x10000, 0xdeadbeef, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		v, err := m.Load(0x10000+uint32(i&1023)*4, 4)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}

// BenchmarkMemStore is the store-side twin of BenchmarkMemLoad.
func BenchmarkMemStore(b *testing.B) {
	m := NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Store(0x10000+uint32(i&1023)*4, uint32(i), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemLoadCross measures the page-boundary-crossing slow path that
// the fast path must fall back to.
func BenchmarkMemLoadCross(b *testing.B) {
	m := NewMemory()
	if err := m.Store(pageSize-2, 0xbeef, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		v, err := m.Load(pageSize-2, 4)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}
