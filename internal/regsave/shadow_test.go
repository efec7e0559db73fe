package regsave

import (
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
)

// act runs the tracer's compiled action at instruction v, as a Program
// built with the tracer's Observer would.
func act(tr *Tracer, fr *irexec.Frame, v *ir.Value, args []uint32, res uint32) {
	s := irexec.SiteOf(v)
	s.Act, s.Imm = tr.Observes(fr.Fn).Exec(v)
	if s.Act != irexec.Skip {
		tr.Act(fr, &s, args, res)
	}
}

// A saved register spilled into the frame must lose its symbol when a
// later store overlaps the spill slot, including a store whose
// invalidation range straddles a shadow page boundary (addr&4095 >= 4093)
// and one that wraps around address 0.
func TestShadowInvalidationAcrossPages(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("f", isa.CodeBase)
	b := f.NewBlock(isa.CodeBase)
	sp := f.NewParam(isa.ESP, "esp")
	ebx := f.NewParam(isa.EBX, "ebx")
	k := b.Append(f.NewValue(ir.OpConst))
	spill := b.Append(f.NewValue(ir.OpStore, k, ebx))
	spill.Size = 4
	clobber := b.Append(f.NewValue(ir.OpStore, k, k))
	clobber.Size = 4
	reload := b.Append(f.NewValue(ir.OpLoad, k))
	reload.Size = 4
	b.Append(f.NewValue(ir.OpRet, sp))
	f.EnsureLayout()

	cases := []struct {
		sp0, slot, store uint32
		lost             bool
	}{
		{0x3100, 0x2ffc, 0x2ffe, true},  // straddles 0x2fff|0x3000
		{0x3100, 0x3000, 0x2ffd, true},  // reaches into the next page
		{0x3100, 0x3000, 0x2ff8, false}, // ends below the slot
		{0x3100, 0x2ff8, 0x2ffd, false}, // starts above the slot
		{0x100, 0x0, 0xfffffffe, true},  // wraps: invalidates 0xfffffffb..0x1
		{0x100, 0x4, 0xfffffffe, false},
	}
	for _, c := range cases {
		tr := NewTracer()
		fr := &irexec.Frame{Fn: f, SP0: c.sp0, Epoch: 1}
		tr.FnEnter(fr)
		act(tr, fr, spill, []uint32{c.slot, 0}, 0)
		if c.store != c.slot {
			act(tr, fr, clobber, []uint32{c.store, 0}, 0)
		}
		tr.syms.Window(fr)[reload.Slot()] = 0
		act(tr, fr, reload, []uint32{c.slot}, 0)
		kept := tr.syms.Window(fr)[reload.Slot()] != 0
		if kept == c.lost {
			t.Errorf("sp0 %#x: spill at %#x, store at %#x: symbol kept = %v, want %v",
				c.sp0, c.slot, c.store, kept, !c.lost)
		}
	}
}

// A reload recomputes its symbol on every execution: once it reads an
// address without a spill, it holds no symbol, even if an earlier
// execution reloaded a spilled EBX. Returning that reload as EBX then
// violates the saved-register condition.
func TestReloadDropsStaleSymbol(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("f", isa.CodeBase)
	b := f.NewBlock(isa.CodeBase)
	sp := f.NewParam(isa.ESP, "esp")
	ebx := f.NewParam(isa.EBX, "ebx")
	k := b.Append(f.NewValue(ir.OpConst))
	spill := b.Append(f.NewValue(ir.OpStore, k, ebx))
	spill.Size = 4
	reload := b.Append(f.NewValue(ir.OpLoad, k))
	reload.Size = 4
	rets := make([]*ir.Value, isa.NumRegs)
	for r := range rets {
		rets[r] = k
	}
	rets[isa.ESP], rets[isa.EBX] = sp, reload
	ret := b.Append(f.NewValue(ir.OpRet, rets...))
	f.NumRet = len(rets)
	f.EnsureLayout()

	const sp0, slot, other = 0x3100, 0x3000, 0x3010
	tr := NewTracer()
	fr := &irexec.Frame{Fn: f, SP0: sp0, Epoch: 1}
	tr.FnEnter(fr)
	act(tr, fr, spill, []uint32{slot, 7}, 0)
	act(tr, fr, reload, []uint32{slot}, 7)
	act(tr, fr, reload, []uint32{other}, 0)
	tr.FnExit(fr, ret, nil)
	if c := tr.Classify(mod)[f][isa.EBX]; c == Saved {
		t.Errorf("ebx returned from a reload of another address classifies as %v", c)
	}
}
