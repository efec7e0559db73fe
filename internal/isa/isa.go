// Package isa defines the synthetic 32-bit instruction set used throughout
// this reproduction. The ISA is deliberately x86-flavoured: it has eight
// general-purpose registers including a hardware stack pointer (ESP) and the
// conventional frame pointer (EBP), push/pop/call/ret instructions that
// implicitly move ESP, two-address arithmetic, condition flags, and memory
// operands of the form base + index*scale + displacement. These are exactly
// the properties the paper's stack-layout analyses depend on: stack
// discipline, register spills, stack-passed arguments, scaled-index array
// addressing, and pointer/integer punning.
//
// Every instruction encodes to a fixed 16-byte form, so code addresses are
// byte addresses that advance in units of InstrSize. This keeps the binary
// image realistic (branch targets are absolute byte addresses inside the
// code section, and jump tables hold code addresses as data) without the
// incidental complexity of variable-length decoding.
package isa

import "fmt"

// Reg names a general-purpose register. The numbering mirrors x86-32 so that
// ESP/EBP keep their conventional roles.
type Reg uint8

// General purpose registers.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI

	// NumRegs is the size of the register file.
	NumRegs = 8

	// NoReg marks an absent register slot in a memory operand.
	NoReg Reg = 0xFF
)

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string {
	if r == NoReg {
		return "-"
	}
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Valid reports whether r names an actual register.
func (r Reg) Valid() bool { return r < NumRegs }

// RegByName resolves an assembler-level register name.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return NoReg, false
}

// CalleeSaved reports whether the platform convention treats r as
// callee-saved. Note that, exactly as §4.1 of the paper stresses, compilers
// may disregard this for internal functions; the dynamic analyses never rely
// on it. It exists for the static baseline and for documentation.
func (r Reg) CalleeSaved() bool {
	switch r {
	case EBX, ESI, EDI, EBP, ESP:
		return true
	}
	return false
}

// Cond is a branch/set condition evaluated against the flags register.
type Cond uint8

// Branch conditions. The L*/G* family is signed, the B*/A* family unsigned,
// mirroring x86 condition codes.
const (
	CondEQ Cond = iota // equal (ZF)
	CondNE             // not equal
	CondLT             // signed <
	CondLE             // signed <=
	CondGT             // signed >
	CondGE             // signed >=
	CondB              // unsigned <
	CondBE             // unsigned <=
	CondA              // unsigned >
	CondAE             // unsigned >=
	NumConds
)

var condNames = [NumConds]string{"eq", "ne", "lt", "le", "gt", "ge", "b", "be", "a", "ae"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// Eval reports whether c holds after the compare a,b: the flags x86 leaves
// after CMP a,b (signed < is sf≠of, unsigned < is cf, and so on). TEST's
// flags are those of the compare r,0 on its result r. It is the ISA's one
// condition evaluator, shared by the emulator, the IR interpreter and
// constant folding. An out-of-range condition is false.
func (c Cond) Eval(a, b uint32) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return int32(a) < int32(b)
	case CondLE:
		return int32(a) <= int32(b)
	case CondGT:
		return int32(a) > int32(b)
	case CondGE:
		return int32(a) >= int32(b)
	case CondB:
		return a < b
	case CondBE:
		return a <= b
	case CondA:
		return a > b
	case CondAE:
		return a >= b
	}
	return false
}

// Negate returns the condition that is true exactly when c is false.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	case CondB:
		return CondAE
	case CondBE:
		return CondA
	case CondA:
		return CondBE
	case CondAE:
		return CondB
	}
	return c
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. Two-address arithmetic (Dst = Dst op Src / Imm) mirrors x86 and
// is what forces compilers to spill — a behaviour the stack analyses must
// see. MOVLO8/LOADLO8 write only the low byte of the destination and leave
// the upper 24 bits intact; they reproduce the x86 sub-register writes that
// cause the paper's "false derives" (§4.2.3).
const (
	NOP Op = iota

	MOV  // Dst = Src
	MOVI // Dst = Imm

	LOAD   // Dst = mem[Mem], Size bytes, sign/zero extended per Signed
	STORE  // mem[Mem] = Src, Size bytes
	STOREI // mem[Mem] = Imm, Size bytes
	LEA    // Dst = effective address of Mem

	MOVLO8  // Dst = (Dst &^ 0xFF) | (Src & 0xFF)     — sub-register move
	LOADLO8 // Dst = (Dst &^ 0xFF) | mem8[Mem]        — sub-register load

	ADD // Dst = Dst + Src
	SUB // Dst = Dst - Src
	AND // Dst = Dst & Src
	OR  // Dst = Dst | Src
	XOR // Dst = Dst ^ Src
	SHL // Dst = Dst << (Src & 31)
	SHR // Dst = Dst >> (Src & 31) logical
	SAR // Dst = Dst >> (Src & 31) arithmetic
	MUL // Dst = Dst * Src (low 32 bits)
	DIV // Dst = Dst / Src (signed; traps on zero)
	MOD // Dst = Dst % Src (signed; traps on zero)

	ADDI // Dst = Dst + Imm
	SUBI // Dst = Dst - Imm
	ANDI // Dst = Dst & Imm
	ORI  // Dst = Dst | Imm
	XORI // Dst = Dst ^ Imm
	SHLI // Dst = Dst << (Imm & 31)
	SHRI // Dst = Dst >> (Imm & 31) logical
	SARI // Dst = Dst >> (Imm & 31) arithmetic
	MULI // Dst = Dst * Imm
	DIVI // Dst = Dst / Imm (signed)
	MODI // Dst = Dst % Imm (signed)

	NEG // Dst = -Dst
	NOT // Dst = ^Dst

	CMP  // flags <- Dst - Src
	CMPI // flags <- Dst - Imm
	TEST // flags <- Dst & Src
	SET  // Dst = Cond ? 1 : 0

	PUSH  // esp -= 4; mem[esp] = Src
	PUSHI // esp -= 4; mem[esp] = Imm
	POP   // Dst = mem[esp]; esp += 4

	JMP   // pc = Imm (absolute code address)
	JCC   // if Cond { pc = Imm }
	JMPR  // pc = Src (indirect jump; jump tables)
	CALL  // push return address; pc = Imm
	CALLR // push return address; pc = Src (indirect call)
	RET   // pc = pop()

	SYS  // system call; Imm selects the call (see machine package)
	HALT // stop the machine

	NumOps
)

var opNames = [NumOps]string{
	"nop",
	"mov", "movi",
	"load", "store", "storei", "lea",
	"movlo8", "loadlo8",
	"add", "sub", "and", "or", "xor", "shl", "shr", "sar", "mul", "div", "mod",
	"addi", "subi", "andi", "ori", "xori", "shli", "shri", "sari", "muli", "divi", "modi",
	"neg", "not",
	"cmp", "cmpi", "test", "set",
	"push", "pushi", "pop",
	"jmp", "jcc", "jmpr", "call", "callr", "ret",
	"sys", "halt",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// IsBinOpReg reports whether op is a two-address register-register ALU op.
func (op Op) IsBinOpReg() bool { return op >= ADD && op <= MOD }

// IsBinOpImm reports whether op is a two-address register-immediate ALU op.
func (op Op) IsBinOpImm() bool { return op >= ADDI && op <= MODI }

// ImmForm returns the register-immediate twin of a register-register ALU op.
func (op Op) ImmForm() Op {
	if !op.IsBinOpReg() {
		panic("isa: ImmForm of non-ALU op " + op.String())
	}
	return op - ADD + ADDI
}

// RegForm returns the register-register twin of a register-immediate ALU op.
func (op Op) RegForm() Op {
	if !op.IsBinOpImm() {
		panic("isa: RegForm of non-ALU-imm op " + op.String())
	}
	return op - ADDI + ADD
}

// IsControl reports whether op transfers control.
func (op Op) IsControl() bool {
	switch op {
	case JMP, JCC, JMPR, CALL, CALLR, RET, HALT:
		return true
	}
	return false
}

// MemRef is a memory operand: base + index*scale + disp. Absent registers
// are NoReg; Scale is 1, 2, 4 or 8.
type MemRef struct {
	Base  Reg   // base register (NoReg if absent)
	Index Reg   // index register (NoReg if absent)
	Scale uint8 // index multiplier: 1, 2, 4 or 8
	Disp  int32 // constant displacement
}

// HasBase reports whether the operand includes a base register.
func (m MemRef) HasBase() bool { return m.Base != NoReg }

// HasIndex reports whether the operand includes an index register.
func (m MemRef) HasIndex() bool { return m.Index != NoReg }

func (m MemRef) String() string {
	s := fmt.Sprintf("%d", m.Disp)
	if m.HasBase() {
		s += "(" + m.Base.String()
		if m.HasIndex() {
			s += fmt.Sprintf(",%s,%d", m.Index, m.Scale)
		}
		s += ")"
	} else if m.HasIndex() {
		s += fmt.Sprintf("(,%s,%d)", m.Index, m.Scale)
	}
	return s
}

// Instr is one decoded instruction. Fields that an opcode does not use are
// ignored by the machine and must be zero in canonical encodings (the
// assembler and codegen produce canonical instructions; Decode preserves
// whatever was encoded).
type Instr struct {
	Op     Op     // opcode
	Cond   Cond   // condition for JCC/SETCC/CMOV
	Dst    Reg    // destination register
	Src    Reg    // source register
	Size   uint8  // 1, 2 or 4 for LOAD/STORE/STOREI
	Signed bool   // sign-extend sub-word LOADs
	Imm    int32  // immediate operand
	Mem    MemRef // memory operand
}

// Uses reports the registers an instruction reads.
func (in *Instr) Uses() []Reg {
	var out []Reg
	add := func(r Reg) {
		if r.Valid() {
			out = append(out, r)
		}
	}
	switch {
	case in.Op == MOV || in.Op == PUSH || in.Op == JMPR || in.Op == CALLR:
		add(in.Src)
	case in.Op == MOVLO8:
		add(in.Src)
		add(in.Dst)
	case in.Op == LOAD:
		add(in.Mem.Base)
		add(in.Mem.Index)
	case in.Op == LOADLO8:
		add(in.Mem.Base)
		add(in.Mem.Index)
		add(in.Dst)
	case in.Op == LEA:
		add(in.Mem.Base)
		add(in.Mem.Index)
	case in.Op == STORE:
		add(in.Src)
		add(in.Mem.Base)
		add(in.Mem.Index)
	case in.Op == STOREI:
		add(in.Mem.Base)
		add(in.Mem.Index)
	case in.Op.IsBinOpReg():
		add(in.Dst)
		add(in.Src)
	case in.Op.IsBinOpImm() || in.Op == NEG || in.Op == NOT:
		add(in.Dst)
	case in.Op == CMP || in.Op == TEST:
		add(in.Dst)
		add(in.Src)
	case in.Op == CMPI:
		add(in.Dst)
	}
	if in.Op == PUSH || in.Op == PUSHI || in.Op == POP || in.Op == CALL ||
		in.Op == CALLR || in.Op == RET {
		add(ESP)
	}
	return out
}

// Def returns the register an instruction writes, or NoReg.
func (in *Instr) Def() Reg {
	switch {
	case in.Op == MOV, in.Op == MOVI, in.Op == LOAD, in.Op == LEA,
		in.Op == MOVLO8, in.Op == LOADLO8, in.Op == POP, in.Op == SET:
		return in.Dst
	case in.Op.IsBinOpReg(), in.Op.IsBinOpImm(), in.Op == NEG, in.Op == NOT:
		return in.Dst
	}
	return NoReg
}

func (in *Instr) String() string {
	switch {
	case in.Op == NOP || in.Op == RET || in.Op == HALT:
		return in.Op.String()
	case in.Op == MOV:
		return fmt.Sprintf("mov %s, %s", in.Dst, in.Src)
	case in.Op == MOVI:
		return fmt.Sprintf("movi %s, %d", in.Dst, in.Imm)
	case in.Op == MOVLO8:
		return fmt.Sprintf("movlo8 %s, %s", in.Dst, in.Src)
	case in.Op == LOAD:
		sx := "u"
		if in.Signed {
			sx = "s"
		}
		return fmt.Sprintf("load%d%s %s, %s", in.Size, sx, in.Dst, in.Mem)
	case in.Op == LOADLO8:
		return fmt.Sprintf("loadlo8 %s, %s", in.Dst, in.Mem)
	case in.Op == STORE:
		return fmt.Sprintf("store%d %s, %s", in.Size, in.Mem, in.Src)
	case in.Op == STOREI:
		return fmt.Sprintf("storei%d %s, %d", in.Size, in.Mem, in.Imm)
	case in.Op == LEA:
		return fmt.Sprintf("lea %s, %s", in.Dst, in.Mem)
	case in.Op.IsBinOpReg():
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src)
	case in.Op.IsBinOpImm():
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case in.Op == NEG || in.Op == NOT:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case in.Op == CMP:
		return fmt.Sprintf("cmp %s, %s", in.Dst, in.Src)
	case in.Op == CMPI:
		return fmt.Sprintf("cmpi %s, %d", in.Dst, in.Imm)
	case in.Op == TEST:
		return fmt.Sprintf("test %s, %s", in.Dst, in.Src)
	case in.Op == SET:
		return fmt.Sprintf("set%s %s", in.Cond, in.Dst)
	case in.Op == PUSH:
		return fmt.Sprintf("push %s", in.Src)
	case in.Op == PUSHI:
		return fmt.Sprintf("pushi %d", in.Imm)
	case in.Op == POP:
		return fmt.Sprintf("pop %s", in.Dst)
	case in.Op == JMP:
		return fmt.Sprintf("jmp 0x%x", uint32(in.Imm))
	case in.Op == JCC:
		return fmt.Sprintf("j%s 0x%x", in.Cond, uint32(in.Imm))
	case in.Op == JMPR:
		return fmt.Sprintf("jmpr %s", in.Src)
	case in.Op == CALL:
		return fmt.Sprintf("call 0x%x", uint32(in.Imm))
	case in.Op == CALLR:
		return fmt.Sprintf("callr %s", in.Src)
	case in.Op == SYS:
		return fmt.Sprintf("sys %d", in.Imm)
	}
	return in.Op.String()
}
