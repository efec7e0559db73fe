package isa

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := map[Reg]string{EAX: "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
		ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi"}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, r.String(), want)
		}
		got, ok := RegByName(want)
		if !ok || got != r {
			t.Errorf("RegByName(%q) = %v, %v; want %v, true", want, got, ok, r)
		}
	}
	if _, ok := RegByName("zzz"); ok {
		t.Error("RegByName accepted bogus name")
	}
	if NoReg.String() != "-" {
		t.Errorf("NoReg.String() = %q", NoReg.String())
	}
}

func TestCalleeSaved(t *testing.T) {
	saved := map[Reg]bool{EBX: true, ESI: true, EDI: true, EBP: true, ESP: true}
	for r := Reg(0); r < NumRegs; r++ {
		if r.CalleeSaved() != saved[r] {
			t.Errorf("%v.CalleeSaved() = %v, want %v", r, r.CalleeSaved(), saved[r])
		}
	}
}

func TestCondNegate(t *testing.T) {
	for c := Cond(0); c < NumConds; c++ {
		if c.Negate().Negate() != c {
			t.Errorf("double negation of %v = %v", c, c.Negate().Negate())
		}
		if c.Negate() == c {
			t.Errorf("%v negates to itself", c)
		}
	}
	pairs := [][2]Cond{{CondEQ, CondNE}, {CondLT, CondGE}, {CondLE, CondGT},
		{CondB, CondAE}, {CondBE, CondA}}
	for _, p := range pairs {
		if p[0].Negate() != p[1] {
			t.Errorf("%v.Negate() = %v, want %v", p[0], p[0].Negate(), p[1])
		}
	}
}

// condEdges are the operand values where signed and unsigned order and
// overflow part ways: 0, 1, -1, MinInt32 and MaxInt32.
var condEdges = []uint32{0, 1, math.MaxUint32, 1 << 31, math.MaxInt32}

// testFlagsEval is the TEST flag predicate written out from the flags
// TEST leaves on its result r: zf = r==0, sf = r<0 signed, cf = of = false.
func testFlagsEval(c Cond, r uint32) bool {
	switch c {
	case CondEQ:
		return r == 0
	case CondNE:
		return r != 0
	case CondLT:
		return int32(r) < 0
	case CondLE:
		return r == 0 || int32(r) < 0
	case CondGT:
		return r != 0 && int32(r) >= 0
	case CondGE:
		return int32(r) >= 0
	case CondB:
		return false
	case CondBE:
		return r == 0
	case CondA:
		return r != 0
	case CondAE:
		return true
	}
	return false
}

// TestCondEval checks every condition against Go's own comparisons on
// every pair of edge values, and the identity the emulator relies on:
// TEST's flags on r are those of the compare r,0.
func TestCondEval(t *testing.T) {
	for _, a := range condEdges {
		for _, b := range condEdges {
			sa, sb := int32(a), int32(b)
			want := [NumConds]bool{
				CondEQ: a == b, CondNE: a != b,
				CondLT: sa < sb, CondLE: sa <= sb, CondGT: sa > sb, CondGE: sa >= sb,
				CondB: a < b, CondBE: a <= b, CondA: a > b, CondAE: a >= b,
			}
			for c := Cond(0); c < NumConds; c++ {
				if got := c.Eval(a, b); got != want[c] {
					t.Errorf("%s.Eval(%d, %d) = %v, want %v", c, sa, sb, got, want[c])
				}
			}
		}
	}
	for _, r := range condEdges {
		for c := Cond(0); c < NumConds; c++ {
			if got, want := c.Eval(r, 0), testFlagsEval(c, r); got != want {
				t.Errorf("%s.Eval(%d, 0) = %v, want %v as after TEST", c, int32(r), got, want)
			}
		}
	}
	if NumConds.Eval(0, 0) {
		t.Error("an out-of-range condition holds")
	}
}

func TestOpForms(t *testing.T) {
	if ADD.ImmForm() != ADDI || MOD.ImmForm() != MODI {
		t.Error("ImmForm mapping broken")
	}
	if ADDI.RegForm() != ADD || MODI.RegForm() != MOD {
		t.Error("RegForm mapping broken")
	}
	for op := ADD; op <= MOD; op++ {
		if op.ImmForm().RegForm() != op {
			t.Errorf("round trip for %v broken", op)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ImmForm of MOV did not panic")
		}
	}()
	MOV.ImmForm()
}

func TestIsControl(t *testing.T) {
	control := []Op{JMP, JCC, JMPR, CALL, CALLR, RET, HALT}
	for _, op := range control {
		if !op.IsControl() {
			t.Errorf("%v not control", op)
		}
	}
	for _, op := range []Op{MOV, LOAD, STORE, PUSH, POP, ADD, SYS, NOP} {
		if op.IsControl() {
			t.Errorf("%v claims to be control", op)
		}
	}
}

func randInstr(r *rand.Rand) Instr {
	in := Instr{
		Op:     Op(r.Intn(int(NumOps))),
		Cond:   Cond(r.Intn(int(NumConds))),
		Dst:    Reg(r.Intn(NumRegs)),
		Src:    Reg(r.Intn(NumRegs)),
		Size:   []uint8{1, 2, 4}[r.Intn(3)],
		Signed: r.Intn(2) == 0,
		Imm:    int32(r.Uint32()),
	}
	if r.Intn(2) == 0 {
		in.Mem = MemRef{
			Base:  Reg(r.Intn(NumRegs)),
			Index: Reg(r.Intn(NumRegs)),
			Scale: []uint8{1, 2, 4, 8}[r.Intn(4)],
			Disp:  int32(r.Uint32()),
		}
	} else {
		in.Mem = MemRef{Base: NoReg, Index: NoReg}
	}
	return in
}

// Property: Encode/Decode round-trips every instruction exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstr(r)
		var buf [InstrSize]byte
		Encode(buf[:], &in)
		out, err := Decode(buf[:])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeAll/DecodeAll round-trips instruction streams.
func TestEncodeDecodeAll(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		code := make([]Instr, int(n)%37)
		for i := range code {
			code[i] = randInstr(r)
		}
		b := EncodeAll(code)
		if len(b) != len(code)*InstrSize {
			return false
		}
		out, err := DecodeAll(b)
		if err != nil {
			return false
		}
		if len(out) != len(code) {
			return false
		}
		for i := range code {
			if !reflect.DeepEqual(code[i], out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	bad := make([]byte, InstrSize)
	bad[0] = byte(NumOps) + 5
	if _, err := Decode(bad); err == nil {
		t.Error("invalid opcode accepted")
	}
	bad[0] = byte(MOV)
	bad[1] = byte(NumConds) + 1
	if _, err := Decode(bad); err == nil {
		t.Error("invalid condition accepted")
	}
	if _, err := DecodeAll(make([]byte, InstrSize+1)); err == nil {
		t.Error("unaligned stream accepted")
	}
}

func TestUsesDef(t *testing.T) {
	tests := []struct {
		in   Instr
		uses []Reg
		def  Reg
	}{
		{Instr{Op: MOV, Dst: EAX, Src: EBX}, []Reg{EBX}, EAX},
		{Instr{Op: MOVI, Dst: ECX, Imm: 7}, nil, ECX},
		{Instr{Op: ADD, Dst: EAX, Src: ECX}, []Reg{EAX, ECX}, EAX},
		{Instr{Op: ADDI, Dst: EAX, Imm: 4}, []Reg{EAX}, EAX},
		{Instr{Op: LOAD, Dst: EAX, Size: 4, Mem: MemRef{Base: EBP, Index: ECX, Scale: 4, Disp: -8}}, []Reg{EBP, ECX}, EAX},
		{Instr{Op: STORE, Src: EDX, Size: 4, Mem: MemRef{Base: ESP, Index: NoReg, Disp: 4}}, []Reg{EDX, ESP}, NoReg},
		{Instr{Op: PUSH, Src: EBP}, []Reg{EBP, ESP}, NoReg},
		{Instr{Op: POP, Dst: EBP}, []Reg{ESP}, EBP},
		{Instr{Op: RET}, []Reg{ESP}, NoReg},
		{Instr{Op: CALL, Imm: 100}, []Reg{ESP}, NoReg},
		{Instr{Op: CALLR, Src: EAX}, []Reg{EAX, ESP}, NoReg},
		{Instr{Op: MOVLO8, Dst: EAX, Src: ECX}, []Reg{ECX, EAX}, EAX},
		{Instr{Op: JMPR, Src: EDX}, []Reg{EDX}, NoReg},
		{Instr{Op: SET, Cond: CondEQ, Dst: EAX}, nil, EAX},
	}
	for _, tc := range tests {
		if got := tc.in.Uses(); !reflect.DeepEqual(got, tc.uses) {
			t.Errorf("%v Uses() = %v, want %v", tc.in.String(), got, tc.uses)
		}
		if got := tc.in.Def(); got != tc.def {
			t.Errorf("%v Def() = %v, want %v", tc.in.String(), got, tc.def)
		}
	}
}

func TestStringForms(t *testing.T) {
	in := Instr{Op: LOAD, Dst: EAX, Size: 4, Mem: MemRef{Base: EBP, Index: ECX, Scale: 8, Disp: -44}}
	if in.String() != "load4u eax, -44(ebp,ecx,8)" {
		t.Errorf("got %q", in.String())
	}
	in2 := Instr{Op: STORE, Src: ECX, Size: 4, Mem: MemRef{Base: EBP, Index: NoReg, Disp: -20}}
	if in2.String() != "store4 -20(ebp), ecx" {
		t.Errorf("got %q", in2.String())
	}
	in3 := Instr{Op: JCC, Cond: CondNE, Imm: 0x2000}
	if in3.String() != "jne 0x2000" {
		t.Errorf("got %q", in3.String())
	}
}

func TestAddrHelpers(t *testing.T) {
	if !IsExtAddr(ExtBase) || IsExtAddr(ExtBase-1) {
		t.Error("IsExtAddr wrong")
	}
	if !IsCodeAddr(CodeBase, 1) {
		t.Error("entry not a code addr")
	}
	if IsCodeAddr(CodeBase+8, 2) {
		t.Error("unaligned accepted")
	}
	if IsCodeAddr(CodeBase+2*InstrSize, 2) {
		t.Error("out of range accepted")
	}
}
