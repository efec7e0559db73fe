// Superblock dispatch: the emulator's one instruction interpreter, and its
// answer to per-instruction fetch/decode/dispatch cost. The code section of
// an image is immutable, so every instruction is pre-decoded once, at load
// time, into a flat "uop" with its operands resolved (register numbers,
// addressing-mode fields and immediates pulled out of the isa.Instr
// encoding, the cycle cost attached).
// A superblock is the maximal straight-line run of non-control uops starting
// at an entry PC; because instructions are fixed-size and the code is
// immutable, the run starting at every instruction index is a pure function
// of the static code, computed once by a backward sweep (runLen/runCost) —
// there is no discovery phase, no code cache, and no invalidation machinery.
//
// Executing a superblock replaces N rounds of halted-check → budget-check →
// fetch-bounds-check → dispatch with one round of checks followed by a tight
// loop over pre-decoded uops, one batched Steps/Cycles update, and a single
// per-instruction execution of the terminator (which is where all control
// transfers and block events happen — so the BlockHook event stream is
// byte-identical to executing one instruction at a time, and tracing stays
// on this path). Flags are lazy: CMP/TEST record their operands and
// conditions are evaluated only when a consumer (JCC/SET) is reached; see
// the flags type in machine.go.
//
// Two cases keep exact observational equivalence with executing one
// instruction at a time:
//   - A limit inside a superblock (the MaxSteps budget, or Step's limit of
//     one instruction): run executes only the batch's first limit−Steps
//     uops and charges exactly their cost, so ErrMaxSteps hits at exactly
//     the same instruction and Step executes exactly one.
//   - Mid-run errors (memory faults, division by zero): the uop loop
//     restores pc to the faulting instruction and accounts Steps/Cycles for
//     exactly the instructions that executed, including the faulting one.
//
// Entering "the middle" of a previously executed run needs no special case:
// superblocks are keyed by entry PC, and the backward sweep already knows
// the run starting at every instruction.
package machine

import (
	"fmt"

	"wytiwyg/internal/isa"
)

// ukind is a pre-decoded opcode. Straight-line kinds are executed by run's
// uop loop; uCtl marks instructions (control transfers, SYS, HALT, anything
// undecodable) that must go through the machine's full exec path.
type ukind uint8

// Pre-decoded opcodes. The two ALU runs mirror isa.ADD..MOD and
// isa.ADDI..MODI so decode can map them arithmetically.
const (
	uCtl ukind = iota // execute via Machine.exec on the original instruction

	uNop
	uMov
	uMovI
	uMovLo8

	uLoad4 // 4-byte load, the dominant width
	uLoad  // 1/2-byte load, sign- or zero-extending
	uLoadLo8
	uStore4
	uStore // 1/2-byte store
	uStoreI
	uLea

	uAdd // start of the reg-reg ALU run (order matches isa.ADD..MOD)
	uSub
	uAnd
	uOr
	uXor
	uShl
	uShr
	uSar
	uMul
	uDiv
	uMod

	uAddI // start of the reg-imm ALU run (order matches isa.ADDI..MODI)
	uSubI
	uAndI
	uOrI
	uXorI
	uShlI
	uShrI
	uSarI
	uMulI
	uDivI
	uModI

	uNeg
	uNot

	uCmp
	uCmpI
	uTest
	uSet

	uPush
	uPushI
	uPop

	// Fast-dispatched control transfers. Like uCtl they terminate
	// superblock runs, but run executes them inline through transferTo
	// instead of paying exec's instruction re-read; imm holds the branch
	// target and ext the JCC condition.
	uJmp
	uJcc
)

// noReg8 mirrors isa.NoReg in the uop's compact register fields.
const noReg8 = uint8(isa.NoReg)

// uop is one pre-decoded straight-line instruction: operands resolved,
// addressing-mode registers flattened, cycle cost attached. The machine
// never re-reads the isa.Instr for these kinds. The struct is exactly 16
// bytes so instruction fetch indexes prog with a shift instead of a
// multiply; scale/size share a byte (isa documents Scale as 1/2/4/8 and
// Size as 1/2/4, so both fit a nibble) and the sign-extend flag rides in
// the condition byte's top bit — see the accessors below.
type uop struct {
	k    ukind
	dst  uint8 // destination register
	src  uint8 // source register
	base uint8 // memory base register, noReg8 when absent
	idx  uint8 // memory index register, noReg8 when absent
	ss   uint8 // scale<<4 | size: index multiplier and access width
	cost uint8 // cycle cost (opCost of the original opcode)
	ext  uint8 // signed<<7 | cond: sign-extend flag and isa.Cond for uSet
	imm  int32 // immediate operand
	disp int32 // memory displacement
}

// scale is the memory operand's index multiplier.
func (u *uop) scale() uint32 { return uint32(u.ss >> 4) }

// size is the access width for sub-word loads and stores.
func (u *uop) size() uint8 { return u.ss & 15 }

// signed reports whether a sub-word load sign-extends.
func (u *uop) signed() bool { return u.ext&0x80 != 0 }

// cond is the condition evaluated by uSet.
func (u *uop) cond() isa.Cond { return isa.Cond(u.ext & 0x7f) }

// decodeUop pre-decodes one instruction. Control transfers, SYS, HALT and
// unknown opcodes become uCtl and keep executing through exec, which also
// produces the canonical error for undecodable opcodes.
func decodeUop(in *isa.Instr) uop {
	u := uop{
		k:    uCtl,
		dst:  uint8(in.Dst),
		src:  uint8(in.Src),
		base: uint8(in.Mem.Base),
		idx:  uint8(in.Mem.Index),
		ss:   in.Mem.Scale&15<<4 | in.Size&15,
		cost: uint8(opCost[in.Op]),
		ext:  uint8(in.Cond) & 0x7f,
		imm:  in.Imm,
		disp: in.Mem.Disp,
	}
	if in.Signed {
		u.ext |= 0x80
	}
	switch {
	case in.Op == isa.JMP:
		u.k = uJmp
	case in.Op == isa.JCC:
		u.k = uJcc
	case in.Op == isa.NOP:
		u.k = uNop
	case in.Op == isa.MOV:
		u.k = uMov
	case in.Op == isa.MOVI:
		u.k = uMovI
	case in.Op == isa.MOVLO8:
		u.k = uMovLo8
	case in.Op == isa.LOAD:
		if in.Size == 4 {
			u.k = uLoad4
		} else {
			u.k = uLoad
		}
	case in.Op == isa.LOADLO8:
		u.k = uLoadLo8
	case in.Op == isa.STORE:
		if in.Size == 4 {
			u.k = uStore4
		} else {
			u.k = uStore
		}
	case in.Op == isa.STOREI:
		u.k = uStoreI
	case in.Op == isa.LEA:
		u.k = uLea
	case in.Op >= isa.ADD && in.Op <= isa.MOD:
		u.k = uAdd + ukind(in.Op-isa.ADD)
	case in.Op >= isa.ADDI && in.Op <= isa.MODI:
		u.k = uAddI + ukind(in.Op-isa.ADDI)
	case in.Op == isa.NEG:
		u.k = uNeg
	case in.Op == isa.NOT:
		u.k = uNot
	case in.Op == isa.CMP:
		u.k = uCmp
	case in.Op == isa.CMPI:
		u.k = uCmpI
	case in.Op == isa.TEST:
		u.k = uTest
	case in.Op == isa.SET:
		u.k = uSet
	case in.Op == isa.PUSH:
		u.k = uPush
	case in.Op == isa.PUSHI:
		u.k = uPushI
	case in.Op == isa.POP:
		u.k = uPop
	}
	return u
}

// isTerm reports whether a uop terminates a superblock run: every control
// transfer does, whether it dispatches through exec (uCtl) or inline
// (uJmp/uJcc).
func isTerm(k ukind) bool { return k == uCtl || k == uJmp || k == uJcc }

// predecode builds the uop program and the superblock tables. runLen[i] is
// the number of consecutive straight-line uops starting at instruction i;
// runCost[i] is their summed cycle cost. Both are computed by one backward
// sweep and never change (the code section is immutable).
func (m *Machine) predecode() {
	n := len(m.code)
	m.prog = make([]uop, n)
	m.runLen = make([]int32, n+1)
	m.runCost = make([]uint64, n+1)
	for i := range m.code {
		m.prog[i] = decodeUop(&m.code[i])
	}
	for i := n - 1; i >= 0; i-- {
		if isTerm(m.prog[i].k) {
			continue // runLen/runCost stay 0
		}
		m.runLen[i] = m.runLen[i+1] + 1
		m.runCost[i] = m.runCost[i+1] + uint64(m.prog[i].cost)
	}
}

// uaddr computes a pre-decoded memory operand's effective address.
func (m *Machine) uaddr(u *uop) uint32 {
	a := uint32(u.disp)
	if u.base != noReg8 {
		a += m.Regs[u.base&7]
	}
	if u.idx != noReg8 {
		a += m.Regs[u.idx&7] * u.scale()
	}
	return a
}

// uopFault settles machine state when uop j of the superblock starting at
// instruction index i faults: pc points at the faulting instruction, Steps
// counts the instructions that executed (including the faulting one) and
// Cycles charges exactly their costs — the state per-instruction dispatch
// would have left behind. Out of line because faults are cold.
func (m *Machine) uopFault(i, j uint32, pc uint32, err error) error {
	m.pc = pc
	m.Steps += uint64(j) + 1
	m.Cycles += m.runCost[i] - m.runCost[i+j+1]
	return err
}

// badPC reproduces the per-instruction fetch error for an address outside
// the code section (or misaligned within it).
func (m *Machine) badPC() error {
	_, err := m.img.InstrAt(m.pc)
	return fmt.Errorf("machine: pc=0x%x: %w", m.pc, err)
}

// Run executes until halt or error. Steps stop at MaxSteps with
// ErrMaxSteps; a manual Step loop executes the same instructions and
// leaves identical registers, memory, Steps, Cycles and block events.
func (m *Machine) Run() error {
	if err := m.run(m.MaxSteps); err != nil || m.halted {
		return err
	}
	return ErrMaxSteps
}

// Step executes one instruction. It is run with a limit of one more step,
// so it shares Run's dispatch code and differs from it only in where the
// batch is cut.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if m.Steps >= m.MaxSteps {
		return ErrMaxSteps
	}
	return m.run(m.Steps + 1)
}

// run is the emulator's one dispatch loop. It executes until the program
// halts, an error occurs, or Steps reaches limit (returning nil then):
// per superblock, one round of halted/limit/fetch checks, a tight loop
// over the pre-decoded body with the uop switch inlined, one batched
// Steps/Cycles update, then the terminator — JMP/JCC inline through
// transferTo, everything else through exec. A batch that would pass limit
// runs only its first limit−Steps uops. Register fields are indexed as
// u.dst&7 (etc.): the mask is a no-op — decode only ever stores
// 0..NumRegs-1 or noReg8, and noReg8 never reaches an index expression —
// but it proves to the compiler that the index is in range, eliding the
// bounds check on every register-file access.
func (m *Machine) run(limit uint64) error {
	for !m.halted {
		if m.Steps >= limit {
			return nil
		}
		off := m.pc - isa.CodeBase
		i := off / isa.InstrSize
		if off%isa.InstrSize != 0 || i >= uint32(len(m.prog)) {
			return m.badPC()
		}
		if n := uint32(m.runLen[i]); n > 0 {
			if left := limit - m.Steps; uint64(n) > left {
				n = uint32(left)
			}
			body := m.prog[i : i+n]
			pc := m.pc
			for j := range body {
				u := &body[j]
				switch u.k {
				case uNop:

				case uMov:
					m.Regs[u.dst&7] = m.Regs[u.src&7]
				case uMovI:
					m.Regs[u.dst&7] = uint32(u.imm)
				case uMovLo8:
					m.Regs[u.dst&7] = m.Regs[u.dst&7]&^0xFF | m.Regs[u.src&7]&0xFF

				case uLoad4:
					a := m.uaddr(u)
					v, ok := m.Mem.load32Fast(a)
					if !ok {
						var err error
						if v, err = m.Mem.Load(a, 4); err != nil {
							return m.uopFault(i, uint32(j), pc, err)
						}
					}
					m.Regs[u.dst&7] = v
				case uLoad:
					v, err := m.Mem.Load(m.uaddr(u), u.size())
					if err != nil {
						return m.uopFault(i, uint32(j), pc, err)
					}
					if u.signed() {
						switch u.size() {
						case 1:
							v = uint32(int32(int8(v)))
						case 2:
							v = uint32(int32(int16(v)))
						}
					}
					m.Regs[u.dst&7] = v
				case uLoadLo8:
					v, err := m.Mem.Load(m.uaddr(u), 1)
					if err != nil {
						return m.uopFault(i, uint32(j), pc, err)
					}
					m.Regs[u.dst&7] = m.Regs[u.dst&7]&^0xFF | v&0xFF
				case uStore4:
					a := m.uaddr(u)
					if !m.Mem.store32Fast(a, m.Regs[u.src&7]) {
						if err := m.Mem.Store(a, m.Regs[u.src&7], 4); err != nil {
							return m.uopFault(i, uint32(j), pc, err)
						}
					}
				case uStore:
					if err := m.Mem.Store(m.uaddr(u), m.Regs[u.src&7], u.size()); err != nil {
						return m.uopFault(i, uint32(j), pc, err)
					}
				case uStoreI:
					if err := m.Mem.Store(m.uaddr(u), uint32(u.imm), u.size()); err != nil {
						return m.uopFault(i, uint32(j), pc, err)
					}
				case uLea:
					m.Regs[u.dst&7] = m.uaddr(u)

				case uAdd:
					m.Regs[u.dst&7] += m.Regs[u.src&7]
				case uSub:
					m.Regs[u.dst&7] -= m.Regs[u.src&7]
				case uAnd:
					m.Regs[u.dst&7] &= m.Regs[u.src&7]
				case uOr:
					m.Regs[u.dst&7] |= m.Regs[u.src&7]
				case uXor:
					m.Regs[u.dst&7] ^= m.Regs[u.src&7]
				case uShl:
					m.Regs[u.dst&7] <<= m.Regs[u.src&7] & 31
				case uShr:
					m.Regs[u.dst&7] >>= m.Regs[u.src&7] & 31
				case uSar:
					m.Regs[u.dst&7] = uint32(int32(m.Regs[u.dst&7]) >> (m.Regs[u.src&7] & 31))
				case uMul:
					m.Regs[u.dst&7] *= m.Regs[u.src&7]
				case uDiv, uMod:
					d := int32(m.Regs[u.src&7])
					if d == 0 {
						return m.uopFault(i, uint32(j), pc, fmt.Errorf("machine: division by zero at pc=0x%x", pc))
					}
					n := int32(m.Regs[u.dst&7])
					if u.k == uDiv {
						m.Regs[u.dst&7] = uint32(n / d)
					} else {
						m.Regs[u.dst&7] = uint32(n % d)
					}

				case uAddI:
					m.Regs[u.dst&7] += uint32(u.imm)
				case uSubI:
					m.Regs[u.dst&7] -= uint32(u.imm)
				case uAndI:
					m.Regs[u.dst&7] &= uint32(u.imm)
				case uOrI:
					m.Regs[u.dst&7] |= uint32(u.imm)
				case uXorI:
					m.Regs[u.dst&7] ^= uint32(u.imm)
				case uShlI:
					m.Regs[u.dst&7] <<= uint32(u.imm) & 31
				case uShrI:
					m.Regs[u.dst&7] >>= uint32(u.imm) & 31
				case uSarI:
					m.Regs[u.dst&7] = uint32(int32(m.Regs[u.dst&7]) >> (uint32(u.imm) & 31))
				case uMulI:
					m.Regs[u.dst&7] *= uint32(u.imm)
				case uDivI, uModI:
					if u.imm == 0 {
						return m.uopFault(i, uint32(j), pc, fmt.Errorf("machine: division by zero at pc=0x%x", pc))
					}
					n := int32(m.Regs[u.dst&7])
					if u.k == uDivI {
						m.Regs[u.dst&7] = uint32(n / u.imm)
					} else {
						m.Regs[u.dst&7] = uint32(n % u.imm)
					}

				case uNeg:
					m.Regs[u.dst&7] = -m.Regs[u.dst&7]
				case uNot:
					m.Regs[u.dst&7] = ^m.Regs[u.dst&7]

				case uCmp:
					m.flags = flags{a: m.Regs[u.dst&7], b: m.Regs[u.src&7]}
				case uCmpI:
					m.flags = flags{a: m.Regs[u.dst&7], b: uint32(u.imm)}
				case uTest:
					m.flags = flags{a: m.Regs[u.dst&7] & m.Regs[u.src&7]}
				case uSet:
					if m.flags.eval(u.cond()) {
						m.Regs[u.dst&7] = 1
					} else {
						m.Regs[u.dst&7] = 0
					}

				case uPush, uPushI:
					// ESP moves before the store, so on a fault ESP stays
					// decremented — the same order Machine.push uses.
					v := uint32(u.imm)
					if u.k == uPush {
						v = m.Regs[u.src&7]
					}
					sp := m.Regs[isa.ESP] - 4
					m.Regs[isa.ESP] = sp
					if !m.Mem.store32Fast(sp, v) {
						if err := m.Mem.Store(sp, v, 4); err != nil {
							return m.uopFault(i, uint32(j), pc, err)
						}
					}
				case uPop:
					sp := m.Regs[isa.ESP]
					v, ok := m.Mem.load32Fast(sp)
					if !ok {
						var err error
						if v, err = m.Mem.Load(sp, 4); err != nil {
							return m.uopFault(i, uint32(j), pc, err)
						}
					}
					m.Regs[isa.ESP] += 4
					m.Regs[u.dst&7] = v
				}
				pc += isa.InstrSize
			}
			m.Steps += uint64(n)
			m.Cycles += m.runCost[i] - m.runCost[i+n]
			m.pc = pc
			i += n
			if m.Steps >= limit {
				return nil
			}
			if i >= uint32(len(m.prog)) {
				return m.badPC()
			}
		}
		// The terminator (or a control instruction sitting directly at the
		// entry PC): JMP/JCC inline, charging their cost before the
		// transfer, everything else through exec (which charges its own).
		m.Steps++
		switch u := &m.prog[i]; u.k {
		case uJmp:
			m.Cycles += uint64(u.cost)
			to := uint32(u.imm)
			if m.BlockHook == nil {
				m.pc = to
				continue
			}
			m.transferTo(TransferJump, to, false)
		case uJcc:
			m.Cycles += uint64(u.cost)
			to := m.pc + isa.InstrSize
			taken := m.flags.eval(u.cond())
			if taken {
				to = uint32(u.imm)
			}
			if m.BlockHook == nil {
				m.pc = to
				continue
			}
			m.transferTo(TransferBranch, to, taken)
		default:
			if err := m.exec(&m.code[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
