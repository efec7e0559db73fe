package funcrec

import (
	"testing"

	"wytiwyg/internal/asm"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

func traceSrc(t *testing.T, src string, prof gen.Profile, inputs []machine.Input) (*tracer.CFG, *Result) {
	t.Helper()
	img, err := gen.Build(src, prof, "t")
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.New(img)
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	if err := tr.RunAll(inputs, 1); err != nil {
		t.Fatal(err)
	}
	cfg := tr.BuildCFG()
	res, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

func TestRecoverSimpleCalls(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int main() { return add(mul(2, 3), 4); }
`
	_, res := traceSrc(t, src, gen.GCC12O3, nil)
	for _, name := range []string{"_start", "main", "add", "mul"} {
		found := false
		for _, f := range res.Funcs {
			if f.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("function %s not recovered", name)
		}
	}
}

func TestRecoverAgainstSymbols(t *testing.T) {
	src := `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int helper(int x) { return x * 3; }
int main() { return fib(8) + helper(2); }
`
	for _, prof := range gen.Profiles {
		_, res := traceSrc(t, src, prof, nil)
		// Every executed symbol must be an entry (no tail-call-only
		// functions in this program).
		for _, f := range res.Funcs {
			if f.Name == "" {
				t.Errorf("%s: unnamed function at %#x", prof.Name, f.Entry)
			}
		}
		if len(res.Funcs) != 4 {
			t.Errorf("%s: recovered %d functions, want 4", prof.Name, len(res.Funcs))
		}
	}
}

func TestBodiesDisjoint(t *testing.T) {
	src := `
int f(int x) {
	int i, s = 0;
	for (i = 0; i < x; i++) s += i;
	return s;
}
int g(int x) { if (x > 2) return f(x); return x; }
int main() { return g(5) + g(1) + f(3); }
`
	cfg, res := traceSrc(t, src, gen.GCC12O3, nil)
	seen := map[uint32]string{}
	for _, f := range res.Funcs {
		for _, b := range f.Blocks {
			if prev, dup := seen[b]; dup {
				t.Errorf("block %#x owned by both %s and %s", b, prev, f.Name)
			}
			seen[b] = f.Name
		}
	}
	// Every executed block is owned by exactly one function.
	for a := range cfg.Blocks {
		if res.Owner[a] == nil {
			t.Errorf("block %#x has no owner", a)
		}
	}
}

// Tail calls: at O3, `return g(...)` with matching arity lowers to a jump.
// Function recovery must classify those jumps as tail calls, keeping f and
// g separate functions (both also have regular call sites).
func TestTailCallClassification(t *testing.T) {
	src := `
int sink(int n) { return n + 1; }
int hop(int n) { return sink(n * 2); }
int main() { return hop(10) + sink(3); }
`
	cfg, res := traceSrc(t, src, gen.GCC12O3, nil)
	if len(res.TailCalls) == 0 {
		t.Fatal("no tail calls identified (codegen should have emitted one)")
	}
	var names []string
	for _, f := range res.Funcs {
		names = append(names, f.Name)
	}
	for _, want := range []string{"sink", "hop", "main"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing; recovered %v", want, names)
		}
	}
	// The tail-call site must be owned by hop and must be flagged in the
	// CFG for the lifter.
	for site := range res.TailCalls {
		if !cfg.TailJumps[site] {
			t.Errorf("tail call at %#x not propagated to CFG", site)
		}
	}
}

// A function reached ONLY through a single tail call merges into its caller.
func TestSingleTailCallMerged(t *testing.T) {
	src := `
int helper2(int n) { return n * 7; }
int outer(int n) { return helper2(n + 1); }
int main() { return outer(5); }
`
	_, res := traceSrc(t, src, gen.GCC12O3, nil)
	// helper2 is only ever tail-called from outer (exactly one site), so it
	// may legitimately be merged into outer — but only if outer's body now
	// owns helper2's blocks. Either outcome (separate function or merged)
	// is sound; merged must keep block ownership.
	img, _ := gen.Build(src, gen.GCC12O3, "t")
	addr, ok := img.SymAddr("helper2")
	if !ok {
		t.Fatal("no symbol for helper2")
	}
	owner := res.Owner[addr]
	if owner == nil {
		t.Fatalf("helper2's entry block unowned")
	}
	if owner.Name != "helper2" && owner.Name != "outer" {
		t.Errorf("helper2 owned by %s", owner.Name)
	}
}

// Shared code reached by jumps from two different functions must be split
// into its own function (the multi-entry case of §5.1).
func TestSharedBlockSplit(t *testing.T) {
	// Hand-written assembly: f1 and f2 both jump into `shared`.
	asmSrc := `
main:
    pushi 3
    call f1
    addi esp, 4
    push eax
    call f2
    addi esp, 4
    halt
f1:
    load4 eax, [esp+4]
    addi eax, 10
    jmp shared
f2:
    load4 eax, [esp+4]
    addi eax, 20
    jmp shared
shared:
    muli eax, 2
    ret
`
	img, err := asmAssemble(asmSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.New(img)
	if _, err := tr.Run(machine.Input{}); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(tr.BuildCFG())
	if err != nil {
		t.Fatal(err)
	}
	sharedAddr, _ := img.SymAddr("shared")
	owner := res.Owner[sharedAddr]
	if owner == nil {
		t.Fatal("shared block unowned")
	}
	if owner.Entry != sharedAddr {
		t.Errorf("shared block not split into its own function (owner %s@%#x)",
			owner.Name, owner.Entry)
	}
	// Both jumps into shared must be tail calls now.
	f1, _ := img.SymAddr("f1")
	f2, _ := img.SymAddr("f2")
	if res.Owner[f1] == res.Owner[sharedAddr] || res.Owner[f2] == res.Owner[sharedAddr] {
		t.Error("shared body still merged with a caller")
	}
}

func asmAssemble(src string) (*obj.Image, error) {
	return asm.Assemble("t", src, "")
}
