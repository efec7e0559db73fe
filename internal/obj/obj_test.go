package obj

import (
	"testing"

	"wytiwyg/internal/isa"
)

func validImage() *Image {
	return &Image{
		Code: []isa.Instr{
			{Op: isa.MOVI, Dst: isa.EAX, Imm: 1},
			{Op: isa.HALT},
		},
		Entry: isa.CodeBase,
		Name:  "t",
	}
}

func TestValidateOK(t *testing.T) {
	if err := validImage().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBadEntry(t *testing.T) {
	img := validImage()
	img.Entry = isa.CodeBase + 7
	if img.Validate() == nil {
		t.Error("unaligned entry accepted")
	}
	img.Entry = isa.CodeBase + 100*isa.InstrSize
	if img.Validate() == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestValidateBranchTargets(t *testing.T) {
	img := validImage()
	img.Code[0] = isa.Instr{Op: isa.JMP, Imm: int32(isa.CodeBase + 5*isa.InstrSize)}
	if img.Validate() == nil {
		t.Error("out-of-range jump accepted")
	}
	img.Code[0] = isa.Instr{Op: isa.CALL, Imm: int32(extBase())}
	if img.Validate() == nil {
		t.Error("unresolved external accepted")
	}
	img.Externs = map[uint32]string{isa.ExtBase: "exit"}
	if err := img.Validate(); err != nil {
		t.Errorf("resolved external rejected: %v", err)
	}
}

func TestValidateBadSize(t *testing.T) {
	img := validImage()
	img.Code[0] = isa.Instr{Op: isa.LOAD, Dst: isa.EAX, Size: 3,
		Mem: isa.MemRef{Base: isa.EBP, Index: isa.NoReg}}
	if img.Validate() == nil {
		t.Error("bad size accepted")
	}
	img.Code[0] = isa.Instr{Op: isa.LOAD, Dst: isa.EAX, Size: 4,
		Mem: isa.MemRef{Base: isa.EBP, Index: isa.ECX, Scale: 3}}
	if img.Validate() == nil {
		t.Error("bad scale accepted")
	}
}

func TestValidateDataSize(t *testing.T) {
	img := validImage()
	img.Data = make([]byte, isa.DataSize)
	if err := img.Validate(); err != nil {
		t.Errorf("full data section rejected: %v", err)
	}
	img.Data = make([]byte, isa.DataSize+1)
	if img.Validate() == nil {
		t.Error("data past the input region accepted")
	}
}

func TestAddrConversions(t *testing.T) {
	for i := 0; i < 5; i++ {
		if IndexOf(AddrOf(i)) != i {
			t.Errorf("round trip failed for %d", i)
		}
	}
}

func TestInstrAt(t *testing.T) {
	img := validImage()
	in, err := img.InstrAt(isa.CodeBase + isa.InstrSize)
	if err != nil || in.Op != isa.HALT {
		t.Errorf("InstrAt: %v, %v", in, err)
	}
	if _, err := img.InstrAt(isa.CodeBase + 2*isa.InstrSize); err == nil {
		t.Error("out-of-range InstrAt accepted")
	}
}

func TestSymLookup(t *testing.T) {
	img := validImage()
	img.Syms = []Symbol{
		{Name: "b", Addr: AddrOf(1)},
		{Name: "a", Addr: AddrOf(0)},
	}
	img.SortSyms()
	if img.Syms[0].Name != "a" {
		t.Error("SortSyms did not sort")
	}
	if n, ok := img.SymName(AddrOf(1)); !ok || n != "b" {
		t.Errorf("SymName = %q %v", n, ok)
	}
	if _, ok := img.SymName(AddrOf(7)); ok {
		t.Error("bogus SymName hit")
	}
	if a, ok := img.SymAddr("a"); !ok || a != AddrOf(0) {
		t.Errorf("SymAddr = %#x %v", a, ok)
	}
}

// extBase returns isa.ExtBase as a non-constant so it can be converted to
// int32 without a compile-time overflow.
func extBase() uint32 { return isa.ExtBase }
