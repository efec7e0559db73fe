// Package machine emulates the synthetic ISA. It is the reproduction's
// stand-in for both the physical CPU the paper's binaries ran on and the
// S2E-style tracing substrate: a deterministic cycle cost model replaces
// wall-clock measurements, and an optional block hook exposes exactly the
// event stream the paper's binary tracer records: every executed block and
// the control transfer that ended it.
package machine

import (
	"errors"
	"fmt"
	"io"

	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
)

// TransferKind classifies a control transfer observed during execution.
type TransferKind uint8

// Control-transfer kinds reported to the block hook.
const (
	TransferJump   TransferKind = iota // unconditional or indirect jump
	TransferBranch                     // conditional branch (taken or fall through)
	TransferCall                       // direct or indirect call to lifted code
	TransferRet                        // return
	TransferExt                        // call to an external (library) function
)

// Transfer is one control-transfer event: the instruction at From moved
// control to To. For conditional branches both outcomes are reported (the
// fall-through address when not taken), which is what CFG recovery needs.
type Transfer struct {
	Kind  TransferKind // what kind of control transfer
	From  uint32       // address of the transferring instruction
	To    uint32       // destination address (or fall-through when not taken)
	Taken bool         // meaningful for TransferBranch
}

// Input is the program input vector provided by the harness; the analogue
// of the paper's user-provided (ref) input sets. Programs read it through
// the input_int/input_str library functions.
type Input struct {
	Ints []int32  // values served by input_int, by index
	Strs []string // values served by input_str, by index
}

// Cycle costs. ALU and moves cost 1; memory traffic dominates, as on real
// hardware. The exact constants matter less than their ordering: the paper's
// performance effects come from eliminating memory operations and
// instructions, which any monotone cost model preserves.
const (
	costALU    = 1
	costMem    = 3
	costPush   = 3
	costCall   = 5
	costRet    = 5
	costBranch = 1
	costMul    = 3
	costDiv    = 12
	costLea    = 1
)

// Machine executes one loaded image. Field order groups the per-instruction
// execution state (registers, flags, pc, counters, halt flag, dispatch
// tables) at the front so the dispatch loops touch as few cache lines as
// possible.
type Machine struct {
	Regs   [isa.NumRegs]uint32 // architectural register file
	flags  flags
	pc     uint32
	halted bool

	Cycles   uint64 // accumulated cost-model cycles
	Steps    uint64 // instructions executed
	MaxSteps uint64 // execution budget; 0 means the default limit

	// BlockHook, when non-nil, is the machine's one observer: it is called
	// at the end of every dynamic basic block — the maximal run of
	// instructions between two control transfers. start and end are the
	// addresses of the block's first and last executed instruction, and
	// the block executed every instruction in [start, end] in address
	// order; when the block ended at a control transfer term is true and t
	// is that transfer, and when it ended because the program stopped
	// (HALT, exit syscall) term is false and t is zero. Because every
	// control opcode terminates a block regardless of direction, the end
	// address is a pure function of the start address and the static
	// code, so a consumer may dedup blocks by start address. A block cut
	// short by a fault or the step budget is not reported.
	BlockHook func(start, end uint32, t Transfer, term bool)

	// blockStart is the address of the first instruction of the dynamic
	// block currently executing (BlockHook support): every control
	// transfer moves it to the transfer's destination.
	blockStart uint32

	// code is the image's decoded instruction stream; prog, runLen and
	// runCost are its pre-decoded superblock tables (see superblock.go),
	// built once at load time — the code section is immutable.
	code    []isa.Instr
	prog    []uop
	runLen  []int32
	runCost []uint64

	img *obj.Image
	Mem *Memory // the address space

	Out io.Writer // program output sink

	lib *LibState

	// StubHits counts executions of trap stubs, keyed by the name of the
	// function the stub stands in for. Stubs are located through the
	// "__stub$" symbols codegen plants on every trap it emits; a binary
	// without such symbols (an original, untranslated image) never counts.
	StubHits map[string]uint64
	// stubAddrs maps the halt address of each trap stub to the owning
	// function name.
	stubAddrs map[uint32]string

	exitCode int32
}

// stubPrefix marks the symbols codegen plants on trap stubs. The symbol
// name is stubPrefix + function name + "$" + an index distinguishing
// multiple stubs within one function.
const stubPrefix = "__stub$"

// stubFunc extracts the stub's owning function name from a stub symbol.
func stubFunc(sym string) string {
	name := sym[len(stubPrefix):]
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '$' {
			return name[:i]
		}
	}
	return name
}

// flags is the lazily evaluated flags register. CMP/CMPI record their raw
// operands and TEST records its result; nothing else in the ISA writes
// flags. A consumer (JCC or SET) evaluates just the one condition it needs
// via eval. The predicates are the standard x86 identities the previous
// eager zf/sf/of/cf encoding computed (signed < is sf≠of after a
// subtraction, unsigned < is cf, and so on), so consumers observe exactly
// the same outcomes — only the work moves from every compare to the
// compares a branch actually reads.
type flags struct {
	a, b uint32 // CMP/CMPI operands; TEST stores its masked result in a
	test bool   // the last producer was TEST
}

// ErrMaxSteps is returned when execution exceeds the step budget.
var ErrMaxSteps = errors.New("machine: step budget exceeded")

// New loads an image and prepares a machine. Output (if out is nil) is
// discarded.
func New(img *obj.Image, input Input, out io.Writer) (*Machine, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if out == nil {
		out = io.Discard
	}
	m := &Machine{
		img:      img,
		Mem:      NewMemory(),
		Out:      out,
		MaxSteps: 2_000_000_000,
		StubHits: make(map[string]uint64),
	}
	for _, s := range img.Syms {
		if len(s.Name) > len(stubPrefix) && s.Name[:len(stubPrefix)] == stubPrefix {
			if m.stubAddrs == nil {
				m.stubAddrs = make(map[uint32]string)
			}
			// The symbol sits on the stub's first instruction; the halt
			// that ends the run is the next one.
			m.stubAddrs[s.Addr+isa.InstrSize] = stubFunc(s.Name)
		}
	}
	if err := m.Mem.WriteBytes(isa.DataBase, img.Data); err != nil {
		return nil, err
	}
	lib, err := NewLibState(m.Mem, input, out)
	if err != nil {
		return nil, err
	}
	m.lib = lib
	m.Regs[isa.ESP] = isa.StackTop
	m.pc = img.Entry
	m.blockStart = img.Entry
	m.code = img.Code
	m.predecode()
	return m, nil
}

// PC returns the current program counter.
func (m *Machine) PC() uint32 { return m.pc }

// Halted reports whether the program has exited.
func (m *Machine) Halted() bool { return m.halted }

// ExitCode returns the program's exit status (valid after Halted).
func (m *Machine) ExitCode() int32 { return m.exitCode }

// transferTo completes a JMP or JCC with BlockHook attached: it emits the
// event (From is the current pc, still the transferring instruction),
// moves pc to the target and starts the next dynamic block there. The
// dispatch loops call it only when BlockHook is set; without it they just
// move pc, which is all a transfer does then. exec's tail performs the
// same sequence for the remaining control ops.
func (m *Machine) transferTo(kind TransferKind, to uint32, taken bool) {
	m.emit(Transfer{Kind: kind, From: m.pc, To: to, Taken: taken})
	m.pc = to
	m.blockStart = to
}

// emit ends the in-flight block at control transfer t.
func (m *Machine) emit(t Transfer) {
	if m.BlockHook != nil {
		m.BlockHook(m.blockStart, m.pc, t, true)
	}
}

// endBlock reports the in-flight block when execution stops without a
// control transfer (HALT or the exit syscall).
func (m *Machine) endBlock() {
	if m.BlockHook != nil {
		m.BlockHook(m.blockStart, m.pc, Transfer{}, false)
	}
}

func (m *Machine) push(v uint32) error {
	m.Regs[isa.ESP] -= 4
	return m.Mem.Store(m.Regs[isa.ESP], v, 4)
}

func (m *Machine) pop() (uint32, error) {
	v, err := m.Mem.Load(m.Regs[isa.ESP], 4)
	if err != nil {
		return 0, err
	}
	m.Regs[isa.ESP] += 4
	return v, nil
}

// eval evaluates a condition against the recorded compare, exactly as the
// eager flag encoding would after CMP a,b (or TEST a,b) the way x86 does.
func (f flags) eval(c isa.Cond) bool {
	if f.test {
		// After TEST: zf = r==0, sf = r<0 signed, cf = of = false.
		r := f.a
		switch c {
		case isa.CondEQ:
			return r == 0
		case isa.CondNE:
			return r != 0
		case isa.CondLT:
			return int32(r) < 0
		case isa.CondLE:
			return r == 0 || int32(r) < 0
		case isa.CondGT:
			return r != 0 && int32(r) >= 0
		case isa.CondGE:
			return int32(r) >= 0
		case isa.CondB:
			return false
		case isa.CondBE:
			return r == 0
		case isa.CondA:
			return r != 0
		case isa.CondAE:
			return true
		}
		return false
	}
	switch c {
	case isa.CondEQ:
		return f.a == f.b
	case isa.CondNE:
		return f.a != f.b
	case isa.CondLT:
		return int32(f.a) < int32(f.b)
	case isa.CondLE:
		return int32(f.a) <= int32(f.b)
	case isa.CondGT:
		return int32(f.a) > int32(f.b)
	case isa.CondGE:
		return int32(f.a) >= int32(f.b)
	case isa.CondB:
		return f.a < f.b
	case isa.CondBE:
		return f.a <= f.b
	case isa.CondA:
		return f.a > f.b
	case isa.CondAE:
		return f.a >= f.b
	}
	return false
}

// opCost is the per-opcode cycle cost, applied by table lookup on the
// dispatch path. Indexed by the full uint8 opcode space so no bounds check
// is needed; unknown opcodes cost zero and are rejected by exec's default
// case anyway.
var opCost = [256]uint64{
	isa.NOP: costALU, isa.MOV: costALU, isa.MOVI: costALU, isa.MOVLO8: costALU,
	isa.LOAD: costMem, isa.LOADLO8: costMem, isa.STORE: costMem, isa.STOREI: costMem,
	isa.LEA: costLea,
	isa.ADD: costALU, isa.SUB: costALU, isa.AND: costALU, isa.OR: costALU,
	isa.XOR: costALU, isa.SHL: costALU, isa.SHR: costALU, isa.SAR: costALU,
	isa.ADDI: costALU, isa.SUBI: costALU, isa.ANDI: costALU, isa.ORI: costALU,
	isa.XORI: costALU, isa.SHLI: costALU, isa.SHRI: costALU, isa.SARI: costALU,
	isa.MUL: costMul, isa.MULI: costMul,
	isa.DIV: costDiv, isa.MOD: costDiv, isa.DIVI: costDiv, isa.MODI: costDiv,
	isa.NEG: costALU, isa.NOT: costALU,
	isa.CMP: costALU, isa.CMPI: costALU, isa.TEST: costALU, isa.SET: costALU,
	isa.PUSH: costPush, isa.PUSHI: costPush, isa.POP: costPush,
	isa.JMP: costBranch, isa.JCC: costBranch, isa.JMPR: costBranch,
	isa.CALL: costCall, isa.CALLR: costCall, isa.RET: costRet,
	isa.SYS: costCall, isa.HALT: 0,
}

// exec dispatches one control-transferring instruction (everything
// straight-line executes through the uop dispatch in superblock.go;
// decodeUop routes only control transfers, SYS, HALT and undecodable
// opcodes here). Control transfers
// are where block events fire, which is why superblock dispatch funnels
// terminators through this one path.
func (m *Machine) exec(in *isa.Instr) error {
	next := m.pc + isa.InstrSize
	m.Cycles += opCost[in.Op]

	switch in.Op {
	case isa.JMP:
		next = uint32(in.Imm)
		m.emit(Transfer{Kind: TransferJump, From: m.pc, To: next})
	case isa.JCC:
		taken := m.flags.eval(in.Cond)
		if taken {
			next = uint32(in.Imm)
		}
		m.emit(Transfer{Kind: TransferBranch, From: m.pc, To: next, Taken: taken})
	case isa.JMPR:
		next = m.Regs[in.Src]
		m.emit(Transfer{Kind: TransferJump, From: m.pc, To: next})
	case isa.CALL, isa.CALLR:
		target := uint32(in.Imm)
		if in.Op == isa.CALLR {
			target = m.Regs[in.Src]
		}
		if isa.IsExtAddr(target) {
			m.emit(Transfer{Kind: TransferExt, From: m.pc, To: target})
			if err := m.extCall(target); err != nil {
				return err
			}
			if m.halted {
				return nil
			}
			break // next already pc+InstrSize; external "returned"
		}
		if err := m.push(next); err != nil {
			return err
		}
		m.emit(Transfer{Kind: TransferCall, From: m.pc, To: target})
		next = target
	case isa.RET:
		ra, err := m.pop()
		if err != nil {
			return err
		}
		m.emit(Transfer{Kind: TransferRet, From: m.pc, To: ra})
		next = ra

	case isa.SYS:
		if err := m.syscall(in.Imm); err != nil {
			return err
		}
		if m.halted {
			m.endBlock()
			return nil
		}
	case isa.HALT:
		if name, ok := m.stubAddrs[m.pc]; ok {
			m.StubHits[name]++
		}
		m.halted = true
		m.exitCode = int32(m.Regs[isa.EAX])
		m.endBlock()
		return nil

	default:
		return fmt.Errorf("machine: unimplemented op %v at pc=0x%x", in.Op, m.pc)
	}

	// Only control transfers reach this point (SYS and HALT returned
	// above), so a new dynamic block starts at next.
	m.pc = next
	m.blockStart = next
	return nil
}

func (m *Machine) syscall(num int32) error {
	switch num {
	case 0: // exit; status in eax
		m.halted = true
		m.exitCode = int32(m.Regs[isa.EAX])
		return nil
	default:
		return fmt.Errorf("machine: unknown syscall %d at pc=0x%x", num, m.pc)
	}
}

// Run executes until halt or error through superblock dispatch (see
// superblock.go), with or without BlockHook. A manual Step loop is the
// per-instruction reference: both produce identical registers, memory,
// Steps, Cycles and block event streams.
func (m *Machine) Run() error { return m.runSuper() }

// Result summarizes one complete execution.
type Result struct {
	ExitCode int32  // the program's exit status
	Cycles   uint64 // accumulated cost-model cycles
	Steps    uint64 // instructions executed
	// StubHits counts trap-stub executions per stubbed function (empty for
	// images without stub symbols — see Machine.StubHits).
	StubHits map[string]uint64
}

// Execute is a convenience: load img, run it on input, write program output
// to out, and return the result.
func Execute(img *obj.Image, input Input, out io.Writer) (Result, error) {
	m, err := New(img, input, out)
	if err != nil {
		return Result{}, err
	}
	if err := m.Run(); err != nil {
		return Result{}, err
	}
	return Result{ExitCode: m.ExitCode(), Cycles: m.TotalCycles(), Steps: m.Steps, StubHits: m.StubHits}, nil
}

// TotalCycles returns machine cycles plus library-function work.
func (m *Machine) TotalCycles() uint64 { return m.Cycles + m.lib.Cycles }
