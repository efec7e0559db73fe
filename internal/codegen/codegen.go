// Package codegen lowers IR modules back to machine code — the "compiler +
// linker" stage of the paper's Figure 4 that turns refined IR into the
// recovered binary. It handles both module shapes:
//
//   - unsymbolized (BinRec baseline): register-file signatures, an emulated
//     stack region in the data section, raw variadic calls lowered with
//     genuine stack switching;
//   - symbolized: explicit parameters, allocas as native frame slots, no
//     emulated stack.
//
// The convention for recompiled code: arguments pushed right to left,
// result 0 in EAX, extra tuple results through a per-module return buffer,
// EBX/ESI/EDI callee-saved (used for register allocation), ECX/EDX scratch.
package codegen

import (
	"fmt"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
)

// Compile lowers a module to an executable image.
func Compile(mod *ir.Module, name string) (*obj.Image, error) {
	return CompileWith(mod, name, Options{})
}

// Options disables individual code-generation features, for ablation
// studies and debugging. The zero value is the full code generator.
type Options struct {
	// NoTiles disables scaled-index address tiling: every address is
	// materialized with explicit mul/add instructions.
	NoTiles bool
	// NoEAXFuse disables the one-instruction EAX forwarding window:
	// every value round-trips through its home.
	NoEAXFuse bool
	// NoCoalesce disables phi-web copy coalescing: loop-carried variables
	// get fresh homes and explicit edge copies.
	NoCoalesce bool
}

// CompileWith is Compile with feature toggles.
func CompileWith(mod *ir.Module, name string, opts Options) (*obj.Image, error) {
	g := &cg{mod: mod, b: asm.NewBuilder(name), opts: opts}
	return g.compile()
}

type cg struct {
	mod  *ir.Module
	b    *asm.Builder
	lbl  int
	opts Options
}

func (g *cg) newLabel(hint string) string {
	g.lbl++
	return fmt.Sprintf(".cg_%s_%d", hint, g.lbl)
}

func (g *cg) compile() (*obj.Image, error) {
	// Original data section verbatim at DataBase.
	if len(g.mod.Data) > 0 {
		g.b.Bytes("", g.mod.Data)
	}
	// Return buffer for multi-result calls.
	g.b.Space("__retbuf", 4*isa.NumRegs, 4)
	var emuTop uint32
	if g.mod.EmuStackSize > 0 {
		base := g.b.Space("__emustack", g.mod.EmuStackSize, 16)
		emuTop = base + g.mod.EmuStackSize - 64
	}

	// Entry wrapper: call the lifted entry with its expected parameters.
	g.b.Func("_start")
	entry := g.mod.Entry
	for i := len(entry.Params) - 1; i >= 0; i-- {
		p := entry.Params[i]
		if p.RegHint == isa.ESP && emuTop != 0 {
			g.b.PushI(int32(emuTop))
		} else {
			g.b.PushI(0)
		}
	}
	g.b.Call(fnLabel(entry))
	if n := 4 * len(entry.Params); n > 0 {
		g.b.BinI(isa.ADDI, isa.ESP, int32(n))
	}
	g.b.Halt()

	for _, f := range g.mod.Funcs {
		fg := &fnCG{g: g, f: f}
		if err := fg.emit(); err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", f.Name, err)
		}
	}
	img, err := g.b.Link("_start")
	if err != nil {
		return nil, err
	}
	return img, nil
}

// fnLabel is the assembler label of a lifted function.
func fnLabel(f *ir.Func) string { return "fn_" + f.Name }

// home describes where a value lives between instructions.
type home struct {
	inReg bool
	reg   isa.Reg
	// slot is the frame-slot index (for spilled values).
	slot int
	// frameAddr marks alloca values: the "value" is the address of frame
	// offset allocOff.
	frameAddr bool
	allocOff  int32
	// konst marks constants rematerialized at use.
	konst bool
	cval  int32
	// param marks values living in the incoming argument area.
	param bool
	pidx  int
}

type fnCG struct {
	g *cg
	f *ir.Func

	order     []*ir.Block
	homes     map[*ir.Value]home
	fused     map[*ir.Value]bool
	slots     int
	allocSize int32
	saved     []isa.Reg
	pushDepth int32
	epilogue  string
	blockLbl  map[*ir.Block]string

	// callExtracts maps each call to its extract values, for immediate
	// result spreading.
	callExtracts map[*ir.Value][]*ir.Value

	// stubs counts the trap stubs emitted so far, numbering their
	// "__stub$" symbols.
	stubs int

	// tiles maps load/store address values to scaled-index operands;
	// skipped marks tile interiors that are never emitted; tileRefs are
	// values tiles re-read at the memory op (they must keep real homes).
	tiles    map[*ir.Value]tile
	skipped  map[*ir.Value]bool
	tileRefs map[*ir.Value]bool

	// eaxFuse marks single-use values consumed by the immediately following
	// instruction: their result stays in EAX and never touches a slot.
	eaxFuse map[*ir.Value]bool
	// eaxPending/eaxCache implement the one-instruction forwarding window.
	eaxPending *ir.Value
	eaxCache   *ir.Value
}

func (c *fnCG) b() *asm.Builder { return c.g.b }

func (c *fnCG) emit() error {
	splitCriticalEdges(c.f)
	c.order = linearize(c.f)
	c.computeTiles()
	c.assignHomes()
	// Compare/branch fusion.
	uses := ir.BuildUses(c.f)
	c.fused = make(map[*ir.Value]bool)
	for _, blk := range c.f.Blocks {
		for _, v := range blk.Insts {
			if c.cmpFusable(uses, v) {
				c.fused[v] = true
			}
		}
	}

	c.blockLbl = make(map[*ir.Block]string, len(c.order))
	for _, blk := range c.order {
		c.blockLbl[blk] = c.g.newLabel(fmt.Sprintf("%s_b%d", c.f.Name, blk.ID))
	}
	c.epilogue = c.g.newLabel(c.f.Name + "_ret")

	b := c.b()
	b.Func(fnLabel(c.f))
	// Prologue.
	for _, r := range c.saved {
		b.Push(r)
	}
	frame := c.frameBytes()
	if frame > 0 {
		b.BinI(isa.SUBI, isa.ESP, frame)
	}
	// Load register-allocated parameters.
	for i, p := range c.f.Params {
		h := c.homes[p]
		if h.inReg {
			b.Load(h.reg, c.paramMem(i), 4, false)
		}
	}

	c.computeEAXFusion()

	for bi, blk := range c.order {
		b.Label(c.blockLbl[blk])
		c.emitHeadCopies(blk)
		for _, v := range blk.Insts {
			term := v.Op.IsTerm()
			if term {
				// Phi copies happen before the terminator on edges where
				// this block is the unique predecessor side.
				if err := c.emitEdgeCopies(blk); err != nil {
					return err
				}
			}
			// One-instruction EAX forwarding window.
			c.eaxCache = c.eaxPending
			c.eaxPending = nil
			if err := c.emitValue(blk, v, bi); err != nil {
				return fmt.Errorf("%s: %w", v.Op, err)
			}
			c.eaxCache = nil
		}
		c.eaxPending = nil
	}

	// Epilogue.
	b.Label(c.epilogue)
	if frame > 0 {
		b.BinI(isa.ADDI, isa.ESP, frame)
	}
	for i := len(c.saved) - 1; i >= 0; i-- {
		b.Pop(c.saved[i])
	}
	b.Ret()
	return nil
}

// frameBytes is the local frame size (allocas + spill slots).
func (c *fnCG) frameBytes() int32 {
	return c.allocSize + int32(4*c.slots)
}

// slotMem addresses spill slot i (slots sit above the alloca area).
func (c *fnCG) slotMem(slot int) isa.MemRef {
	return asm.Mem(isa.ESP, c.allocSize+int32(4*slot)+c.pushDepth)
}

// allocaMem addresses the start of an alloca's storage.
func (c *fnCG) allocaAddr(off int32) isa.MemRef {
	return asm.Mem(isa.ESP, off+c.pushDepth)
}

// paramMem addresses incoming parameter i.
func (c *fnCG) paramMem(i int) isa.MemRef {
	return asm.Mem(isa.ESP, c.frameBytes()+int32(4*len(c.saved))+4+int32(4*i)+c.pushDepth)
}

func (c *fnCG) push(r isa.Reg) {
	c.b().Push(r)
	c.pushDepth += 4
}

func (c *fnCG) pushI(v int32) {
	c.b().PushI(v)
	c.pushDepth += 4
}

func (c *fnCG) pop(r isa.Reg) {
	c.b().Pop(r)
	c.pushDepth -= 4
}
