package lifter_test

import (
	"math/rand"
	"reflect"
	"testing"

	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/lifter"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// Robustness: every stage that consumes untrusted binary input — the
// decoder, the image loader, the emulator, the tracer, the CFG builder
// and the lifter — must reject garbage with an error, never a panic.
// These tests feed each stage random input; any panic fails the test.

// TestDecodeGarbageNeverPanics decodes random byte buffers. Buffers that
// decode successfully must survive an encode/decode round trip.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, isa.InstrSize)
	ok := 0
	for i := 0; i < 20000; i++ {
		r.Read(buf)
		in, err := isa.Decode(buf)
		if err != nil {
			continue
		}
		ok++
		enc := make([]byte, isa.InstrSize)
		isa.Encode(enc, &in)
		back, err := isa.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of encoded instruction failed: %v (%+v)", err, in)
		}
		if !reflect.DeepEqual(in, back) {
			t.Fatalf("decode/encode/decode mismatch:\n %+v\n %+v", in, back)
		}
	}
	if ok == 0 {
		t.Fatal("no random buffer decoded; generator or decoder too strict")
	}
}

// randInstr builds a random instruction biased toward validity: register
// fields in range, branch targets aligned inside the code section.
func randInstr(r *rand.Rand, codeLen int) isa.Instr {
	var in isa.Instr
	in.Op = isa.Op(r.Intn(int(isa.NumOps)))
	in.Cond = isa.Cond(r.Intn(int(isa.NumConds)))
	in.Dst = isa.Reg(r.Intn(isa.NumRegs))
	in.Src = isa.Reg(r.Intn(isa.NumRegs))
	switch r.Intn(3) {
	case 0:
		in.Size = 1
	case 1:
		in.Size = 2
	default:
		in.Size = 4
	}
	in.Signed = r.Intn(2) == 0
	in.Imm = int32(r.Intn(256) - 64)
	switch in.Op {
	case isa.JMP, isa.JCC, isa.CALL:
		in.Imm = int32(isa.CodeBase) + int32(r.Intn(codeLen))*isa.InstrSize
	case isa.DIVI, isa.MODI:
		if in.Imm == 0 {
			in.Imm = 3
		}
	}
	if r.Intn(2) == 0 {
		in.Mem.Base = isa.Reg(r.Intn(isa.NumRegs))
	} else {
		in.Mem.Base = isa.NoReg
	}
	if r.Intn(3) == 0 {
		in.Mem.Index = isa.Reg(r.Intn(isa.NumRegs))
		in.Mem.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
	} else {
		in.Mem.Index = isa.NoReg
	}
	in.Mem.Disp = int32(r.Intn(128) - 32)
	return in
}

// TestRandomProgramsNeverPanic loads and executes random instruction
// streams. Runs that halt cleanly are traced and lifted; every stage may
// return an error but none may panic.
func TestRandomProgramsNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var halted, lifted int
	for i := 0; i < 400; i++ {
		n := 4 + r.Intn(24)
		code := make([]isa.Instr, 0, n+1)
		for j := 0; j < n; j++ {
			code = append(code, randInstr(r, n+1))
		}
		code = append(code, isa.Instr{Op: isa.HALT})
		img := &obj.Image{Code: code, Entry: isa.CodeBase, Name: "fuzz"}
		if err := img.Validate(); err != nil {
			continue
		}
		m, err := machine.New(img, machine.Input{}, nil)
		if err != nil {
			continue
		}
		m.MaxSteps = 50000
		if err := m.Run(); err != nil || !m.Halted() {
			continue
		}
		halted++
		tr := tracer.New(img)
		if _, err := tr.Run(machine.Input{}); err != nil {
			continue
		}
		cfg := tr.BuildCFG()
		rec, err := funcrec.Recover(cfg)
		if err != nil {
			continue
		}
		if _, err := lifter.Lift(img, cfg, rec); err != nil {
			continue
		}
		lifted++
	}
	if halted == 0 {
		t.Fatal("no random program halted; generator too hostile to be useful")
	}
	if lifted == 0 {
		t.Log("note: no random program survived lifting (all errored); still panic-free")
	}
	t.Logf("halted=%d lifted=%d of 400", halted, lifted)
}

// TestTruncatedImage checks loader behaviour on degenerate images: empty
// code, an entry point outside the code section, and an entry in the
// middle that immediately falls off the end.
func TestTruncatedImage(t *testing.T) {
	if err := (&obj.Image{Name: "empty"}).Validate(); err == nil {
		t.Error("empty image validated")
	}
	img := &obj.Image{
		Code:  []isa.Instr{{Op: isa.NOP}},
		Entry: isa.CodeBase + 0x100000,
		Name:  "badentry",
	}
	if err := img.Validate(); err == nil {
		t.Error("out-of-range entry validated")
	}
	// Falling off the end of code must be a runtime error, not a panic.
	img2 := &obj.Image{
		Code:  []isa.Instr{{Op: isa.NOP}, {Op: isa.NOP}},
		Entry: isa.CodeBase,
		Name:  "falloff",
	}
	if err := img2.Validate(); err != nil {
		t.Skipf("validator already rejects halt-less code: %v", err)
	}
	m, err := machine.New(img2, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 100
	if err := m.Run(); err == nil && m.Halted() {
		t.Error("fell off code end yet halted cleanly")
	}
}
