package vartrack

import (
	"runtime/debug"
	"testing"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/stackref"
)

// hookFixture is a one-function module driven through the tracer's hooks
// directly, each instruction's site carrying the action the tracer's
// Observer compiles for it: ref is a direct stack reference (sp0-64),
// ptrStore stores it to the address in its first operand, and
// byteStore/wordStore store a non-pointer of one and four bytes.
type hookFixture struct {
	tr                                  *Tracer
	fr                                  *irexec.Frame
	ref, ptrStore, byteStore, wordStore *ir.Value
	memset, memcpy                      *ir.Value
	sites                               map[*ir.Value]*irexec.Site
}

// act runs the compiled action at v's site.
func (h *hookFixture) act(v *ir.Value, args []uint32, res uint32) {
	h.tr.Act(h.fr, h.sites[v], args, res)
}

func newHookFixture() *hookFixture {
	mod := ir.NewModule("t")
	f := mod.NewFunc("f", isa.CodeBase)
	b := f.NewBlock(isa.CodeBase)
	sp := f.NewParam(isa.ESP, "esp")
	k := b.Append(f.NewValue(ir.OpConst))
	k.Const = -64
	x := b.Append(f.NewValue(ir.OpConst))
	x.Const = 7
	h := &hookFixture{fr: &irexec.Frame{Fn: f, SP0: isa.StackTop, Epoch: 1}}
	h.ref = b.Append(f.NewValue(ir.OpAdd, sp, k))
	h.ptrStore = b.Append(f.NewValue(ir.OpStore, x, h.ref))
	h.ptrStore.Size = 4
	h.byteStore = b.Append(f.NewValue(ir.OpStore, x, x))
	h.byteStore.Size = 1
	h.wordStore = b.Append(f.NewValue(ir.OpStore, x, x))
	h.wordStore.Size = 4
	h.memset = b.Append(f.NewValue(ir.OpCallExt, x, x, x))
	h.memset.Sym = "memset"
	h.memcpy = b.Append(f.NewValue(ir.OpCallExt, x, x, x))
	h.memcpy.Sym = "memcpy"
	b.Append(f.NewValue(ir.OpRet, sp))
	f.EnsureLayout()
	h.tr = NewTracer(map[*ir.Func]stackref.Offsets{f: {h.ref: -64}})
	acts := h.tr.Observes(f)
	h.sites = make(map[*ir.Value]*irexec.Site)
	for _, v := range b.Insts {
		s := irexec.SiteOf(v)
		s.Act, s.Imm = acts.Exec(v)
		h.sites[v] = &s
	}
	h.tr.FnEnter(h.fr)
	h.act(h.ref, []uint32{isa.StackTop, uint32(0xffffffc0)}, isa.StackTop-64)
	return h
}

// storePtr records the direct reference as stored at addr.
func (h *hookFixture) storePtr(addr uint32) {
	h.act(h.ptrStore, []uint32{addr, isa.StackTop - 64}, 0)
}

// has reports whether the address map holds a pointer at addr.
func (h *hookFixture) has(addr uint32) bool { return h.tr.addrMap.Get(addr).id != 0 }

func (h *hookFixture) expect(t *testing.T, what string, present, absent []uint32) {
	t.Helper()
	for _, a := range present {
		if !h.has(a) {
			t.Errorf("%s: pointer at %#x lost", what, a)
		}
	}
	for _, a := range absent {
		if h.has(a) {
			t.Errorf("%s: stale pointer left at %#x", what, a)
		}
	}
}

// A 4-byte store whose invalidation range straddles a page boundary
// (addr&4095 >= 4093) must drop the overlapped pointers on both pages.
func TestAddrMapStraddlingStore(t *testing.T) {
	for _, addr := range []uint32{0x2ffd, 0x2ffe, 0x2fff} {
		h := newHookFixture()
		for _, a := range []uint32{0x2ff4, 0x2ffc, 0x3000, 0x3004} {
			h.storePtr(a)
		}
		h.expect(t, "setup", []uint32{0x2ff4, 0x2ffc, 0x3000, 0x3004}, nil)
		h.act(h.wordStore, []uint32{addr, 7}, 0)
		h.expect(t, "straddling store", []uint32{0x2ff4, 0x3004}, []uint32{0x2ffc, 0x3000})
	}
}

// The addr-3 invalidation wraps around address 0: a byte store at 1 drops
// a pointer recorded at 0xfffffffe.
func TestAddrMapInvalidationWraps(t *testing.T) {
	h := newHookFixture()
	h.storePtr(0xfffffffa)
	h.storePtr(0xfffffffe)
	h.storePtr(0x2)
	h.expect(t, "setup", []uint32{0xfffffffa, 0xfffffffe, 0x2}, nil)
	h.act(h.byteStore, []uint32{0x1, 7}, 0)
	h.expect(t, "byte store at 1", []uint32{0xfffffffa, 0x2}, []uint32{0xfffffffe})
	h.act(h.byteStore, []uint32{0x4, 7}, 0)
	h.expect(t, "byte store at 4", []uint32{0xfffffffa}, []uint32{0x2})
}

// The memset (Fill) and memcpy (Copy) effects of the external-function
// database operate byte-exactly across page boundaries.
func TestAddrMapExternEffectsAcrossPages(t *testing.T) {
	h := newHookFixture()
	for _, a := range []uint32{0x2fec, 0x2ff8, 0x2ffc, 0x3004, 0x3010} {
		h.storePtr(a)
	}
	// memset(0x2ff0, 0, 0x20) clears 0x2ff0..0x300f.
	h.act(h.memset, []uint32{0x2ff0, 0, 0x20}, 0x2ff0)
	h.expect(t, "memset", []uint32{0x2fec, 0x3010}, []uint32{0x2ff8, 0x2ffc, 0x3004})

	// memcpy(0x4ff8, 0x1ff8, 16) copies words 0x1ff8..0x2007 to
	// 0x4ff8..0x5007: present source words overwrite, absent ones clear.
	for _, a := range []uint32{0x1ff8, 0x2000} {
		h.storePtr(a)
	}
	for _, a := range []uint32{0x4ffc, 0x5004, 0x5008} {
		h.storePtr(a)
	}
	h.act(h.memcpy, []uint32{0x4ff8, 0x1ff8, 16}, 0x4ff8)
	h.expect(t, "memcpy", []uint32{0x4ff8, 0x5000, 0x5008}, []uint32{0x4ffc, 0x5004})
	if got := h.tr.addrMap.Get(0x5000); got.id == 0 || h.tr.varOf(got).SPOff != -64 || got.off != 0 {
		t.Errorf("memcpy: copied pointer = %+v, want the sp0-64 base", got)
	}
}

// Re-executing a direct stack reference (its compiled base action),
// storing it into the frame and invalidating an untouched page allocates
// nothing in steady state: the direct-reference table caches the
// base-pointer metadata and the paged address map writes in place.
func TestDirectRefZeroAlloc(t *testing.T) {
	h := newHookFixture()
	h.storePtr(isa.StackTop - 128) // materialize the frame's page
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10000, func() {
		h.act(h.ref, []uint32{isa.StackTop, uint32(0xffffffc0)}, isa.StackTop-64)
		h.storePtr(isa.StackTop - 128)
		h.act(h.wordStore, []uint32{0x08000000, 7}, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state direct reference allocates: %v allocs/op, want 0", allocs)
	}
	if n := len(h.tr.res.Vars); n != 1 {
		t.Fatalf("%d stack variables, want 1", n)
	}
}
