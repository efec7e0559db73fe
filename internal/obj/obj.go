// Package obj defines the binary image format produced by the assembler and
// the mini-C compiler, consumed by the machine, the tracer and the lifter.
// An image is the reproduction's stand-in for a COTS ELF executable: a code
// section, an initialized data section, an entry point, an external-symbol
// table (the "PLT") and an optional symbol table. Ground-truth stack layouts
// travel in a side-table (the analogue of debug info the paper extracts via
// LLVM's Stack Frame Layout analysis); the recompiler never reads it.
package obj

import (
	"fmt"
	"sort"

	"wytiwyg/internal/isa"
	"wytiwyg/internal/layout"
)

// Symbol is a named code address. COTS binaries may be stripped; the
// pipeline treats symbols as optional (funcrec only uses them for
// cross-checking, as §5.1 of the paper does).
type Symbol struct {
	Name string // symbol name
	Addr uint32 // code address the name labels
}

// Image is a loaded, executable binary.
type Image struct {
	// Code is the decoded instruction stream, loaded at isa.CodeBase.
	Code []isa.Instr
	// Entry is the address of the first instruction to execute.
	Entry uint32
	// Data is the initialized data section, loaded at isa.DataBase.
	Data []byte
	// Externs maps virtual PLT addresses (>= isa.ExtBase) to external
	// function names.
	Externs map[uint32]string
	// Syms is the (optional) symbol table, sorted by address.
	Syms []Symbol
	// Truth is the optional ground-truth layout side-table. Only the
	// evaluation reads it.
	Truth *layout.Program
	// TypedTruth is the optional typed ground-truth side-table (the
	// compiler's declared slot types, the analogue of DWARF type info).
	// Only the evaluation reads it.
	TypedTruth *layout.TypedProgram
	// Name labels the image for diagnostics.
	Name string
}

// InstrAt returns the instruction at a code address.
func (im *Image) InstrAt(addr uint32) (*isa.Instr, error) {
	if !isa.IsCodeAddr(addr, len(im.Code)) {
		return nil, fmt.Errorf("obj: address 0x%x outside code section", addr)
	}
	return &im.Code[(addr-isa.CodeBase)/isa.InstrSize], nil
}

// AddrOf returns the code address of instruction index i.
func AddrOf(i int) uint32 { return isa.CodeBase + uint32(i)*isa.InstrSize }

// IndexOf returns the instruction index of a code address.
func IndexOf(addr uint32) int { return int((addr - isa.CodeBase) / isa.InstrSize) }

// ExtName returns the external function name for a PLT address.
func (im *Image) ExtName(addr uint32) (string, bool) {
	n, ok := im.Externs[addr]
	return n, ok
}

// ExtAddr returns the PLT address assigned to an external name.
func (im *Image) ExtAddr(name string) (uint32, bool) {
	for a, n := range im.Externs {
		if n == name {
			return a, true
		}
	}
	return 0, false
}

// SymName returns the symbol name at exactly addr, if any.
func (im *Image) SymName(addr uint32) (string, bool) {
	for _, s := range im.Syms {
		if s.Addr == addr {
			return s.Name, true
		}
	}
	return "", false
}

// SymAddr returns the address of a named symbol.
func (im *Image) SymAddr(name string) (uint32, bool) {
	for _, s := range im.Syms {
		if s.Name == name {
			return s.Addr, true
		}
	}
	return 0, false
}

// SortSyms orders the symbol table by address.
func (im *Image) SortSyms() {
	sort.Slice(im.Syms, func(i, j int) bool { return im.Syms[i].Addr < im.Syms[j].Addr })
}

// Validate performs basic structural checks: entry in range, branch targets
// inside the code section or the PLT, scale values legal.
func (im *Image) Validate() error {
	if !isa.IsCodeAddr(im.Entry, len(im.Code)) {
		return fmt.Errorf("obj: entry 0x%x outside code", im.Entry)
	}
	if len(im.Data) > int(isa.DataSize) {
		return fmt.Errorf("obj: %d bytes of data exceed the %d-byte data section", len(im.Data), isa.DataSize)
	}
	for i := range im.Code {
		in := &im.Code[i]
		switch in.Op {
		case isa.JMP, isa.JCC:
			if !isa.IsCodeAddr(uint32(in.Imm), len(im.Code)) {
				return fmt.Errorf("obj: instr %d (%s): branch target 0x%x outside code", i, in, uint32(in.Imm))
			}
		case isa.CALL:
			t := uint32(in.Imm)
			if !isa.IsCodeAddr(t, len(im.Code)) && !isa.IsExtAddr(t) {
				return fmt.Errorf("obj: instr %d (%s): call target 0x%x invalid", i, in, t)
			}
			if isa.IsExtAddr(t) {
				if _, ok := im.Externs[t]; !ok {
					return fmt.Errorf("obj: instr %d: unresolved external 0x%x", i, t)
				}
			}
		case isa.LOAD, isa.STORE, isa.STOREI, isa.LEA, isa.LOADLO8:
			if in.Op != isa.LEA && in.Op != isa.LOADLO8 {
				switch in.Size {
				case 1, 2, 4:
				default:
					return fmt.Errorf("obj: instr %d (%s): bad access size %d", i, in, in.Size)
				}
			}
			if in.Mem.HasIndex() {
				switch in.Mem.Scale {
				case 1, 2, 4, 8:
				default:
					return fmt.Errorf("obj: instr %d (%s): bad scale %d", i, in, in.Mem.Scale)
				}
			}
		}
	}
	return nil
}
