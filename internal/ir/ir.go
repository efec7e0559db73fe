// Package ir defines the compiler-level intermediate representation that
// binaries are lifted to — the reproduction's stand-in for LLVM IR. It is
// an SSA IR: values are instructions, blocks carry phi nodes, and functions
// initially use the BinRec-style lifted signature (the full register file in,
// the full register file out) with the original program's stack living in an
// emulated-stack memory region. The refinement passes gradually rewrite this
// shape: saved registers leave the signature, direct stack references become
// SP0-relative, and finally stack objects become explicit Alloca values with
// stack arguments promoted to parameters.
package ir

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"wytiwyg/internal/isa"
)

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	OpInvalid Op = iota

	// OpParam is a function parameter. Param values live in Func.Params;
	// RegHint names the virtual CPU register it carries (while the lifted
	// signature is register-based) and Idx is its position.
	OpParam
	// OpConst is a 32-bit constant (Const field).
	OpConst
	// OpSP0 is the value of the stack pointer at function entry. It
	// materializes during the stack-reference refinement; before that, the
	// ESP parameter plays its role.
	OpSP0

	// Arithmetic/logical: Args[0] op Args[1].
	OpAdd
	OpSub
	OpMul
	OpDiv // signed
	OpMod // signed
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical
	OpSar // arithmetic

	// OpNeg/OpNot: unary on Args[0].
	OpNeg
	OpNot

	// OpCmp: Args[0] compared to Args[1] under Cond, yields 0/1.
	OpCmp

	// OpSubreg8: (Args[0] &^ 0xFF) | (Args[1] & 0xFF) — a sub-register
	// write merging the low byte of Args[1] into Args[0]. Kept as its own
	// op because the tracing runtime treats it as a potential false derive.
	OpSubreg8

	// OpSext: sign-extend the low Size bytes of Args[0].
	OpSext
	// OpZext: zero-extend the low Size bytes of Args[0].
	OpZext

	// OpLoad: load Size bytes at address Args[0] (Signed: sign-extend).
	OpLoad
	// OpStore: store the low Size bytes of Args[1] to address Args[0]. No
	// result.
	OpStore

	// OpAlloca: a distinct stack object of AllocSize bytes with alignment
	// Align; yields its address. Introduced by symbolization.
	OpAlloca

	// OpCall: call Func with Args; yields a tuple of NumRet values
	// accessed through OpExtract.
	OpCall
	// OpCallInd: indirect call; Args[0] is the (original-address) target,
	// remaining Args as OpCall. Targets lists the functions observed at
	// this site during tracing.
	OpCallInd
	// OpCallExt: call the external function Sym with explicit Args; one
	// result.
	OpCallExt
	// OpCallExtRaw: call the external variadic function Sym with arguments
	// living in emulated-stack memory at address Args[0] (BinRec's "stack
	// switching"). One result. Eliminated by the varargs refinement.
	OpCallExtRaw

	// OpExtract: result Idx of the tuple produced by Args[0].
	OpExtract

	// OpPhi: SSA phi; Args parallel Block.Preds.
	OpPhi

	// Terminators.
	OpJmp    // to Block.Succs[0]
	OpBr     // if Args[0] != 0 to Succs[0] else Succs[1]
	OpSwitch // on Args[0]: Cases[i].Val -> Succs[i], default Succs[len(Cases)]
	OpRet    // return Args (matches Func.NumRet)
	OpTrap   // unreachable/untraced path: aborts execution

	NumOps
)

var opNames = [NumOps]string{
	"invalid", "param", "const", "sp0",
	"add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "sar",
	"neg", "not", "cmp", "subreg8", "sext", "zext",
	"load", "store", "alloca",
	"call", "callind", "callext", "callextraw",
	"extract", "phi",
	"jmp", "br", "switch", "ret", "trap",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// IsTerm reports whether op terminates a block.
func (op Op) IsTerm() bool {
	switch op {
	case OpJmp, OpBr, OpSwitch, OpRet, OpTrap:
		return true
	}
	return false
}

// HasResult reports whether the op produces a value.
func (op Op) HasResult() bool {
	switch op {
	case OpStore, OpJmp, OpBr, OpSwitch, OpRet, OpTrap, OpInvalid:
		return false
	}
	return true
}

// IsBinALU reports two-operand arithmetic ops.
func (op Op) IsBinALU() bool { return op >= OpAdd && op <= OpSar }

// SwitchCase pairs a constant with a successor index.
type SwitchCase struct {
	Val uint32 // the matched constant
}

// Value is one SSA value / instruction. The fields an executor and its
// tracers read for every executed value (the opcode and its modifiers, the
// dense execution indices, the operands, Const and Idx) come first, so
// they share the value's first cache line.
type Value struct {
	ID      int      // function-unique value number
	Op      Op       // opcode
	Size    uint8    // access width in bytes for memory ops
	Signed  bool     // signedness of widening loads and divisions
	Cond    isa.Cond // condition for OpSetCC / conditional branches
	RegHint isa.Reg  // original machine register, for diagnostics

	// slot and tupleOff are the dense execution indices assigned by
	// Func.reindex (see layout.go); -1 while unassigned.
	slot     int32
	tupleOff int32

	Args  []*Value // operands
	Const int32    // OpConst payload; displacement for memory ops
	Idx   int      // parameter/result index (OpParam, OpRetVal)

	Block   *Block  // owning block
	Sym     string  // external callee name (OpCallExt) or symbol ref
	Callee  *Func   // direct callee (OpCall)
	Targets []*Func // possible callees of OpCallInd
	NumRet  int     // result count of call ops

	AllocSize uint32 // OpAlloca object size in bytes
	Align     uint32 // OpAlloca alignment
	// Name optionally labels allocas and params for diagnostics.
	Name string

	// Cases holds OpSwitch case constants (parallel to Succs[0:len]).
	Cases []SwitchCase
}

// AddArg appends an argument.
func (v *Value) AddArg(a *Value) { v.Args = append(v.Args, a) }

func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("v%d", v.ID)
}

// Block is a basic block.
type Block struct {
	ID    int      // function-unique block number
	Func  *Func    // owning function
	Addr  uint32   // original machine address of the block head, 0 if synthetic
	Phis  []*Value // phi nodes, evaluated on entry
	Insts []*Value // body, terminator last
	Preds []*Block // predecessors, in edge-creation order
	Succs []*Block // successors; order is the terminator's contract
}

// Term returns the block terminator, or nil.
func (b *Block) Term() *Value {
	if len(b.Insts) == 0 {
		return nil
	}
	t := b.Insts[len(b.Insts)-1]
	if !t.Op.IsTerm() {
		return nil
	}
	return t
}

// Func is an IR function.
type Func struct {
	Name   string   // function name
	Addr   uint32   // original entry address
	Mod    *Module  // owning module
	Params []*Value // OpParam values, in signature order
	NumRet int      // number of return slots
	// RetRegs names the virtual register each return slot carries while the
	// lifted signature is register-based (parallel to OpRet args). Empty
	// after symbolization.
	RetRegs []isa.Reg
	Blocks  []*Block // basic blocks; Blocks[0] is the entry

	// StackArgs counts the recovered stack-passed arguments appended to
	// Params by symbolization.
	StackArgs int

	nextValueID int
	nextBlockID int

	// layout caches the dense execution layout (see layout.go); layoutOK
	// marks it current and is cleared by NewValue.
	layout   Layout
	layoutOK atomic.Bool
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// RPO returns f's reachable blocks in reverse post order (entry first).
// The depth-first search visits successors in Succs order, so the order
// is a pure function of the CFG.
func RPO(f *Func) []*Block { return rpo(f, false) }

// RPOAll returns all of f's blocks in reverse post order: the search
// starts at the entry and is then re-seeded from every block in f.Blocks
// order, so blocks unreachable from the entry are included, ahead of the
// reachable ones. Passes that must visit every block use it.
func RPOAll(f *Func) []*Block { return rpo(f, true) }

func rpo(f *Func, all bool) []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	if all {
		for _, b := range f.Blocks {
			dfs(b)
		}
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Uses is a snapshot of one function's use lists: for every value, the
// instructions (phis included) that consume it, in block order with one
// entry per operand position, so a user that reads a value twice appears
// twice. It is a dense index keyed by Value.ID: users of the value with ID
// i are users[off[i]:off[i+1]]. IDs stay dense below Func.NumValueIDs
// whatever the passes create or delete, unlike slots, which every NewValue
// invalidates. The index is not maintained: a pass that rewrites operands
// must call BuildUses again before it reads the lists, and a value created
// after the index was built has no users in it.
type Uses struct {
	off   []int32
	users []*Value
}

// BuildUses scans a function and returns its use lists. Operands must
// belong to f (ir.Verify's rule); nil operands are skipped.
func BuildUses(f *Func) Uses {
	n := f.nextValueID
	// Count each value's uses into off[id], make off[id] the end of its
	// range, then fill backwards over the users in reverse order: every
	// range comes out in block order and off[id] ends as its start.
	off := make([]int32, n+1)
	count := func(user *Value) {
		for _, a := range user.Args {
			if a != nil {
				off[a.ID]++
			}
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			count(v)
		}
		for _, v := range b.Insts {
			count(v)
		}
	}
	var total int32
	for i, c := range off {
		total += c
		off[i] = total
	}
	users := make([]*Value, total)
	fill := func(user *Value) {
		for i := len(user.Args) - 1; i >= 0; i-- {
			if a := user.Args[i]; a != nil {
				off[a.ID]--
				users[off[a.ID]] = user
			}
		}
	}
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		b := f.Blocks[i]
		for j := len(b.Insts) - 1; j >= 0; j-- {
			fill(b.Insts[j])
		}
		for j := len(b.Phis) - 1; j >= 0; j-- {
			fill(b.Phis[j])
		}
	}
	return Uses{off: off, users: users}
}

// Of returns the users of v, in block order. The slice aliases the index
// and must not be modified. A value created after the index was built has
// none.
func (u Uses) Of(v *Value) []*Value {
	if v.ID+1 >= len(u.off) {
		return nil
	}
	return u.users[u.off[v.ID]:u.off[v.ID+1]:u.off[v.ID+1]]
}

// NumValueIDs returns the bound on f's value IDs: every value f.NewValue
// has created has an ID in [0, NumValueIDs). Dense per-value tables such
// as Uses are sized by it.
func (f *Func) NumValueIDs() int { return f.nextValueID }

// NewBlock appends a new block.
func (f *Func) NewBlock(addr uint32) *Block {
	b := &Block{ID: f.nextBlockID, Func: f, Addr: addr}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewValue creates a value without inserting it anywhere. Creating a value
// invalidates the function's cached dense layout (layout.go).
func (f *Func) NewValue(op Op, args ...*Value) *Value {
	v := &Value{ID: f.nextValueID, Op: op, Args: args, slot: -1, tupleOff: -1}
	f.nextValueID++
	f.layoutOK.Store(false)
	return v
}

// NewParam appends a parameter.
func (f *Func) NewParam(reg isa.Reg, name string) *Value {
	v := f.NewValue(OpParam)
	v.RegHint = reg
	v.Idx = len(f.Params)
	v.Name = name
	f.Params = append(f.Params, v)
	return v
}

// Append inserts v at the end of block b (before nothing; terminators are
// appended like other instructions and must come last).
func (b *Block) Append(v *Value) *Value {
	v.Block = b
	b.Insts = append(b.Insts, v)
	return v
}

// AddPhi inserts a phi value into the block.
func (b *Block) AddPhi(v *Value) *Value {
	v.Op = OpPhi
	v.Block = b
	b.Phis = append(b.Phis, v)
	return v
}

// Module is a lifted program.
type Module struct {
	Name  string  // module (program) name
	Funcs []*Func // functions, in recovery order
	// Entry is the function executed first (the lifted _start).
	Entry *Func
	// Data is the original binary's data section (loaded at isa.DataBase).
	Data []byte
	// EmuStackSize is the size of the emulated-stack region; 0 once
	// symbolization has removed it.
	EmuStackSize uint32
	// FuncByAddr finds lifted functions by original entry address (for
	// indirect calls through original code addresses).
	funcsByAddr map[uint32]*Func

	// layoutMu serializes lazy dense-layout computation across concurrent
	// executors (see Func.EnsureLayout).
	layoutMu sync.Mutex
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, funcsByAddr: make(map[uint32]*Func)}
}

// NewFunc creates and registers a function.
func (m *Module) NewFunc(name string, addr uint32) *Func {
	f := &Func{Name: name, Addr: addr, Mod: m}
	m.Funcs = append(m.Funcs, f)
	if addr != 0 {
		m.funcsByAddr[addr] = f
	}
	return f
}

// FuncAt returns the function lifted from original address addr.
func (m *Module) FuncAt(addr uint32) *Func { return m.funcsByAddr[addr] }

// FuncByName finds a function by name.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// IndirectGroups returns the functions that share a signature because they
// appear together as targets of an indirect call, directly or through a
// chain of such calls. Each group has at least two members, sorted by
// name.
func (m *Module) IndirectGroups() [][]*Func {
	parent := make(map[*Func]*Func)
	var find func(f *Func) *Func
	find = func(f *Func) *Func {
		p, ok := parent[f]
		if !ok || p == f {
			parent[f] = f
			return f
		}
		r := find(p)
		parent[f] = r
		return r
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op == OpCallInd && len(v.Targets) > 1 {
					for _, tgt := range v.Targets[1:] {
						parent[find(v.Targets[0])] = find(tgt)
					}
				}
			}
		}
	}
	byRoot := make(map[*Func][]*Func)
	for f := range parent {
		r := find(f)
		byRoot[r] = append(byRoot[r], f)
	}
	var out [][]*Func
	for _, g := range byRoot {
		if len(g) > 1 {
			slices.SortFunc(g, func(a, b *Func) int { return strings.Compare(a.Name, b.Name) })
			out = append(out, g)
		}
	}
	return out
}

// ParamByReg returns the parameter carrying virtual register r, or nil.
func (f *Func) ParamByReg(r isa.Reg) *Value {
	for _, p := range f.Params {
		if p.RegHint == r {
			return p
		}
	}
	return nil
}

// RetIndexOf returns the return-tuple index carrying register r, or -1.
func (f *Func) RetIndexOf(r isa.Reg) int {
	for i, rr := range f.RetRegs {
		if rr == r {
			return i
		}
	}
	return -1
}
