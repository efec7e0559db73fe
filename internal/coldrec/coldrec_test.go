package coldrec

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// discoverAsm assembles src, traces it on the empty input and runs discovery.
func discoverAsm(t *testing.T, src string) (*obj.Image, *tracer.CFG, *funcrec.Result, *Result) {
	t.Helper()
	img, err := asm.Assemble("t", src, "")
	if err != nil {
		t.Fatal(err)
	}
	return discoverImg(t, img)
}

func discoverImg(t *testing.T, img *obj.Image) (*obj.Image, *tracer.CFG, *funcrec.Result, *Result) {
	t.Helper()
	tr := tracer.New(img)
	if _, err := tr.Run(machine.Input{}); err != nil {
		t.Fatal(err)
	}
	cfg := tr.BuildCFG()
	rec, err := funcrec.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg, rec, Discover(img, cfg.Trace, rec)
}

func rejection(res *Result, name string) (Rejection, bool) {
	for _, r := range res.Rejected {
		if r.Name == name {
			return r, true
		}
	}
	return Rejection{}, false
}

const hotPrefix = `
main:
    pushi 5
    call hot
    addi esp, 4
    halt
hot:
    load4 eax, [esp+4]
    addi eax, 1
    ret
`

func TestDiscoverSimpleCold(t *testing.T) {
	img, _, _, res := discoverAsm(t, hotPrefix+`
cold_add:
    load4 eax, [esp+4]
    load4 ecx, [esp+8]
    add eax, ecx
    ret
`)
	if len(res.Rejected) != 0 {
		t.Fatalf("unexpected rejections: %+v", res.Rejected)
	}
	if len(res.Cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(res.Cands))
	}
	c := res.Cands[0]
	addr, _ := img.SymAddr("cold_add")
	if c.Entry != addr || c.Name != "cold_add" {
		t.Errorf("candidate %s@%#x, want cold_add@%#x", c.Name, c.Entry, addr)
	}
	if c.Instrs != 4 {
		t.Errorf("Instrs = %d, want 4", c.Instrs)
	}
	if !c.LiveIn[isa.ESP] {
		t.Error("ESP not live at entry of a stack-argument leaf")
	}
}

// A register written on every path before RET is not an entry argument; one
// merely preserved (never written) must stay live-in so the refinement keeps
// it as a pass-through argument.
func TestLivenessKillsWrittenRegs(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_w:
    movi eax, 7
    ret
`)
	if len(res.Cands) != 1 {
		t.Fatalf("got %d candidates, want 1 (%+v)", len(res.Cands), res.Rejected)
	}
	c := res.Cands[0]
	if c.LiveIn[isa.EAX] {
		t.Error("EAX live at entry despite being written first")
	}
	if !c.LiveIn[isa.EBX] {
		t.Error("preserved EBX not live at entry (pass-through must survive)")
	}
}

func TestRejectSyscall(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_sys:
    sys 1
    ret
`)
	r, ok := rejection(res, "cold_sys")
	if !ok {
		t.Fatalf("cold_sys not rejected; candidates %+v", res.Cands)
	}
	if !strings.Contains(r.Reason, "syscall") {
		t.Errorf("reason %q, want syscall mention", r.Reason)
	}
}

func TestRejectVariadicExternal(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_pr:
    movi eax, fmtstr
    push eax
    call @printf
    addi esp, 4
    ret

.data
fmtstr: .asciz "x"
`)
	r, ok := rejection(res, "cold_pr")
	if !ok {
		t.Fatalf("cold_pr not rejected; candidates %+v", res.Cands)
	}
	if !strings.Contains(r.Reason, "variadic") {
		t.Errorf("reason %q, want variadic mention", r.Reason)
	}
}

func TestCascadeRejection(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_caller:
    call cold_sys
    ret
cold_sys:
    sys 1
    ret
`)
	if len(res.Cands) != 0 {
		t.Fatalf("candidates survived: %+v", res.Cands)
	}
	r, ok := rejection(res, "cold_caller")
	if !ok {
		t.Fatal("cold_caller not rejected")
	}
	if !strings.Contains(r.Reason, "calls rejected candidate") {
		t.Errorf("reason %q, want cascade mention", r.Reason)
	}
}

func TestJumpTableResolved(t *testing.T) {
	img, _, _, res := discoverAsm(t, hotPrefix+`
cold_tbl:
    load4 eax, [esp+4]
    cmpi eax, 3
    jae .tbl_def
    load4 ecx, [eax*4+tbl]
    jmpr ecx
.tbl_c0:
    movi eax, 10
    ret
.tbl_c1:
    movi eax, 20
    ret
.tbl_c2:
    movi eax, 30
    ret
.tbl_def:
    movi eax, 0
    ret

.data
tbl: .table .tbl_c0, .tbl_c1, .tbl_c2
`)
	if len(res.Cands) != 1 {
		t.Fatalf("got %d candidates, want 1 (%+v)", len(res.Cands), res.Rejected)
	}
	c := res.Cands[0]
	// Entry block + dispatch block + 3 cases + default.
	if len(c.Starts) != 6 {
		t.Errorf("got %d blocks, want 6: %#v", len(c.Starts), c.Starts)
	}
	// The dispatch block must list all three table targets as successors.
	entry, _ := img.SymAddr("cold_tbl")
	disp := c.Blocks[entry+3*isa.InstrSize]
	if disp == nil || len(disp.Succs) != 3 {
		t.Fatalf("dispatch block %+v, want 3 successors", disp)
	}
}

func TestJumpTableUnbounded(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_nb:
    load4 ecx, [eax*4+tbl]
    jmpr ecx
.nb_c0:
    ret

.data
tbl: .table .nb_c0
`)
	r, ok := rejection(res, "cold_nb")
	if !ok {
		t.Fatalf("cold_nb not rejected; candidates %+v", res.Cands)
	}
	if !strings.Contains(r.Reason, "bound") {
		t.Errorf("reason %q, want bound mention", r.Reason)
	}
}

func TestOverlapRejected(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_x:
    movi eax, 1
    jmp .shmid
cold_y:
    movi eax, 2
    jmp .shmid
.shmid:
    addi eax, 5
    ret
`)
	if len(res.Cands) != 0 {
		t.Fatalf("candidates survived overlap: %+v", res.Cands)
	}
	for _, name := range []string{"cold_x", "cold_y"} {
		r, ok := rejection(res, name)
		if !ok {
			t.Fatalf("%s not rejected", name)
		}
		if !strings.Contains(r.Reason, "shared") {
			t.Errorf("%s reason %q, want sharing mention", name, r.Reason)
		}
	}
}

// An indirect call dispatches over the statically taken entries; with at
// least one recovered taken entry the caller is admitted and the dispatch
// set is exposed.
func TestIndirectCallDispatch(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Func("main")
	b.MovLabelAddr(isa.EBX, "cold_tgt") // taken address in traced code
	b.MovI(isa.EAX, 0)
	b.Halt()
	b.Func("cold_disp")
	b.MovLabelAddr(isa.ECX, "cold_tgt")
	b.CallR(isa.ECX)
	b.Ret()
	b.Func("cold_tgt")
	b.MovI(isa.EAX, 42)
	b.Ret()
	img, err := b.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	img, _, _, res := discoverImg(t, img)
	if len(res.Cands) != 2 {
		t.Fatalf("got %d candidates, want 2 (%+v)", len(res.Cands), res.Rejected)
	}
	tgt, _ := img.SymAddr("cold_tgt")
	if !res.ByEntry(tgt).AddressTaken {
		t.Error("cold_tgt not marked address-taken")
	}
	if len(res.Dispatch) != 1 || res.Dispatch[0] != tgt {
		t.Errorf("dispatch %v, want [%#x]", res.Dispatch, tgt)
	}
	disp, _ := img.SymAddr("cold_disp")
	if c := res.ByEntry(disp); len(c.CallRSites) != 1 {
		t.Errorf("cold_disp CallRSites %v, want one site", c.CallRSites)
	}
}

// Without any recovered taken entry, an indirect call site cannot be lowered
// and its function is rejected.
func TestIndirectCallNoTargets(t *testing.T) {
	_, _, _, res := discoverAsm(t, hotPrefix+`
cold_disp:
    callr ecx
    ret
`)
	r, ok := rejection(res, "cold_disp")
	if !ok {
		t.Fatalf("cold_disp not rejected; candidates %+v", res.Cands)
	}
	if !strings.Contains(r.Reason, "no recovered targets") {
		t.Errorf("reason %q, want dispatch mention", r.Reason)
	}
}

// Merge must be fully reversible: after Unmerge the CFG, the function set
// and the traced indirect call site's targets are identical to the
// pre-merge state (the lift-failure rollback path).
func TestMergeUnmergeRoundtrip(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Func("main")
	b.MovLabelAddr(isa.EBX, "cold_add") // taken address in traced code
	b.MovLabelAddr(isa.ECX, "hot")
	b.CallR(isa.ECX) // traced indirect site; Merge widens it with cold_add
	b.Halt()
	b.Func("hot")
	b.MovI(isa.EAX, 1)
	b.Ret()
	b.Func("cold_add")
	b.Load(isa.EAX, isa.MemRef{Base: isa.ESP, Index: isa.NoReg, Scale: 1, Disp: 4}, 4, false)
	b.BinI(isa.ADDI, isa.EAX, 3)
	b.Ret()
	img, err := b.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	img, cfg, rec, res := discoverImg(t, img)
	if len(res.Cands) != 1 {
		t.Fatalf("got %d candidates, want 1 (%+v)", len(res.Cands), res.Rejected)
	}
	entry := res.Cands[0].Entry
	site := img.Entry + 2*isa.InstrSize
	if img.Code[obj.IndexOf(site)].Op != isa.CALLR {
		t.Fatalf("no callr at %#x", site)
	}
	targets := func() []uint32 { return cfg.Trace.Targets(site) }
	preTargets := targets()
	if len(preTargets) != 1 {
		t.Fatalf("traced callr targets %v, want one", preTargets)
	}
	preBlocks := len(cfg.Blocks)
	preFuncs := len(rec.Funcs)
	Merge(cfg, rec, res)
	if len(cfg.Blocks) == preBlocks {
		t.Error("merge added no blocks")
	}
	if rec.ByEntry[entry] == nil || rec.Owner[entry] == nil {
		t.Error("merged function not registered")
	}
	if got := targets(); !slices.Contains(got, entry) {
		t.Errorf("merged callr targets %v lack the cold entry %#x", got, entry)
	}
	Unmerge(cfg, rec, res)
	if len(cfg.Blocks) != preBlocks || len(rec.Funcs) != preFuncs {
		t.Errorf("unmerge left %d blocks / %d funcs, want %d / %d",
			len(cfg.Blocks), len(rec.Funcs), preBlocks, preFuncs)
	}
	if rec.ByEntry[entry] != nil || rec.Owner[entry] != nil {
		t.Error("unmerge left the cold function registered")
	}
	if got := targets(); !reflect.DeepEqual(got, preTargets) {
		t.Errorf("unmerge left callr targets %v, want %v", got, preTargets)
	}
}

// Discovery must be a pure function of the image and trace: two runs yield
// deeply equal results (guards the sorted-iteration discipline).
func TestDiscoverDeterministic(t *testing.T) {
	src := hotPrefix + `
cold_a:
    call cold_b
    ret
cold_b:
    load4 eax, [esp+4]
    ret
cold_bad:
    sys 3
    ret
`
	_, _, _, res1 := discoverAsm(t, src)
	_, _, _, res2 := discoverAsm(t, src)
	if !reflect.DeepEqual(res1.Rejected, res2.Rejected) {
		t.Errorf("rejections differ: %+v vs %+v", res1.Rejected, res2.Rejected)
	}
	if len(res1.Cands) != len(res2.Cands) {
		t.Fatalf("candidate counts differ: %d vs %d", len(res1.Cands), len(res2.Cands))
	}
	for i := range res1.Cands {
		a, b := res1.Cands[i], res2.Cands[i]
		if a.Entry != b.Entry || !reflect.DeepEqual(a.Starts, b.Starts) ||
			a.LiveIn != b.LiveIn || !reflect.DeepEqual(a.calls, b.calls) {
			t.Errorf("candidate %d differs: %+v vs %+v", i, a, b)
		}
	}
}
