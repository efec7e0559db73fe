package codegen_test

import (
	"bytes"
	"fmt"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/opt"
)

type tprog struct {
	name   string
	src    string
	inputs []machine.Input
}

var programs = []tprog{
	{"const", `int main() { return 42; }`, nil},
	{"arith", `
int main() {
	int a = 10, b = 3;
	return a*b + a/b - a%b + (a<<2) - (a>>1) + (a&b) + (a|b) + (a^b);
}`, nil},
	{"loop", `
extern int input_int(int i);
int main() {
	int n = input_int(0), s = 0, i;
	for (i = 0; i < n; i++) s += i * i;
	return s % 251;
}`, []machine.Input{{Ints: []int32{30}}, {Ints: []int32{5}}}},
	{"calls", `
int add(int a, int b) { return a + b; }
int twice(int x) { return add(x, x); }
int main() { return twice(add(10, 11)); }`, nil},
	{"recursion", `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(12); }`, nil},
	{"figure2", `
struct p { int x; int y; };
int f3(int n) { return n / 12; }
struct p *f2(struct p *a, struct p *b) { return a; }
int f1() {
	struct p *ptr; struct p a; struct p b[3];
	a.x = 3; a.y = 4;
	ptr = f2(&a, b);
	b[f3(sizeof(b))] = a;
	ptr->y = b[1].x;
	return ptr->y * 100 + b[2].x * 10 + b[2].y;
}
int main() { return f1(); }`, nil},
	{"arrays", `
int main() {
	int a[16];
	int i, s = 0;
	for (i = 0; i < 16; i++) a[i] = i * 3;
	for (i = 0; i < 16; i++) s += a[i];
	return s;
}`, nil},
	{"printf", `
extern int printf(char *fmt, ...);
int main() {
	int i;
	for (i = 0; i < 3; i++) printf("%d ", i);
	printf("%s\n", "end");
	return 0;
}`, nil},
	{"strings", `
extern int strlen(char *s);
extern int sprintf(char *dst, char *fmt, ...);
extern int strcmp(char *a, char *b);
int main() {
	char buf[32];
	sprintf(buf, "v%d", 7);
	if (strcmp(buf, "v7") != 0) return 1;
	return strlen(buf);
}`, nil},
	{"fnptr", `
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int apply(fnptr f, int v) { return f(v); }
int main() { return apply(&twice, 20) + apply(&thrice, 1) % 100; }`, nil},
	{"switch", `
extern int input_int(int i);
int classify(int v) {
	switch (v) {
	case 0: return 10;
	case 1: return 20;
	case 2: return 30;
	case 3: return 40;
	default: return -1;
	}
}
int main() { return classify(input_int(0)) + classify(input_int(1)); }`,
		[]machine.Input{{Ints: []int32{1, 3}}, {Ints: []int32{0, 9}}}},
	{"tailcall", `
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int main() { return isEven(24) * 10 + isOdd(7); }`, nil},
	{"globals", `
int acc = 5;
int tbl[8];
int main() {
	int i;
	for (i = 0; i < 8; i++) tbl[i] = acc + i;
	return tbl[7] + acc;
}`, nil},
	{"heap", `
extern void *malloc(int n);
extern int memset(void *p, int v, int n);
int main() {
	char *p = (char*)malloc(16);
	memset(p, 7, 16);
	return p[0] + p[15];
}`, nil},
}

// recompile checks: native == recompiled(unsymbolized) == recompiled(symbolized+optimized).
func TestRecompileRoundTrip(t *testing.T) {
	for _, prog := range programs {
		inputs := prog.inputs
		if len(inputs) == 0 {
			inputs = []machine.Input{{}}
		}
		for _, prof := range gen.Profiles {
			label := prog.name + "/" + prof.Name
			img, err := gen.Build(prog.src, prof, "t")
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}

			// Unsymbolized recompile (BinRec baseline).
			p1, err := core.LiftBinary(img, inputs)
			if err != nil {
				t.Fatalf("%s: lift: %v", label, err)
			}
			opt.Pipeline(p1.Mod)
			raw, err := codegen.Compile(p1.Mod, "raw")
			if err != nil {
				t.Fatalf("%s: codegen raw: %v", label, err)
			}

			// Symbolized + optimized recompile (WYTIWYG).
			p2, err := core.LiftBinary(img, inputs)
			if err != nil {
				t.Fatalf("%s: lift2: %v", label, err)
			}
			if err := p2.Refine(); err != nil {
				t.Fatalf("%s: refine: %v", label, err)
			}
			opt.Pipeline(p2.Mod)
			sym, err := codegen.Compile(p2.Mod, "sym")
			if err != nil {
				t.Fatalf("%s: codegen sym: %v", label, err)
			}

			for i, input := range inputs {
				var natOut, rawOut, symOut bytes.Buffer
				nat, err := machine.Execute(img, input, &natOut)
				if err != nil {
					t.Fatalf("%s input %d native: %v", label, i, err)
				}
				r1, err := machine.Execute(raw, input, &rawOut)
				if err != nil {
					t.Fatalf("%s input %d raw recompiled: %v", label, i, err)
				}
				r2, err := machine.Execute(sym, input, &symOut)
				if err != nil {
					t.Fatalf("%s input %d sym recompiled: %v", label, i, err)
				}
				if r1.ExitCode != nat.ExitCode || rawOut.String() != natOut.String() {
					t.Errorf("%s input %d raw: exit %d/%d out %q/%q",
						label, i, r1.ExitCode, nat.ExitCode, rawOut.String(), natOut.String())
				}
				if r2.ExitCode != nat.ExitCode || symOut.String() != natOut.String() {
					t.Errorf("%s input %d sym: exit %d/%d out %q/%q",
						label, i, r2.ExitCode, nat.ExitCode, symOut.String(), natOut.String())
				}
			}
		}
	}
}

// The paper's headline: symbolized recompiled binaries beat non-symbolized
// ones, and recompiling -O0 binaries speeds them up.
func TestPerformanceOrdering(t *testing.T) {
	src := `
int work(int n) {
	int acc[8];
	int i, j, s = 0;
	for (i = 0; i < 8; i++) acc[i] = 0;
	for (j = 0; j < n; j++) {
		for (i = 0; i < 8; i++) acc[i] += i * j;
	}
	for (i = 0; i < 8; i++) s += acc[i];
	return s % 1000;
}
int main() { return work(200); }`
	img, err := gen.Build(src, gen.GCC12O0, "t")
	if err != nil {
		t.Fatal(err)
	}
	nat, err := machine.Execute(img, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	p1, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Pipeline(p1.Mod)
	raw, err := codegen.Compile(p1.Mod, "raw")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := machine.Execute(raw, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	p2, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Refine(); err != nil {
		t.Fatal(err)
	}
	opt.Pipeline(p2.Mod)
	sym, err := codegen.Compile(p2.Mod, "sym")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := machine.Execute(sym, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if r1.ExitCode != nat.ExitCode || r2.ExitCode != nat.ExitCode {
		t.Fatalf("exit codes: nat %d raw %d sym %d", nat.ExitCode, r1.ExitCode, r2.ExitCode)
	}
	t.Logf("cycles: native(O0)=%d raw=%d sym=%d", nat.Cycles, r1.Cycles, r2.Cycles)
	if r2.Cycles >= r1.Cycles {
		t.Errorf("symbolized (%d cycles) not faster than raw recompile (%d)", r2.Cycles, r1.Cycles)
	}
	// Reoptimizing an -O0 binary must beat the original (the paper's 2.10x
	// claim, in shape).
	if r2.Cycles >= nat.Cycles {
		t.Errorf("symbolized recompile (%d cycles) not faster than the -O0 original (%d)",
			r2.Cycles, nat.Cycles)
	}
}

// Code generation leaves the module it compiles as it found it: the
// forwarding blocks it puts on critical edges are removed again, so the IR
// can be printed after recompiling (`wytiwyg -emit ir`). gobmk keeps such
// edges after optimization, so -short keeps only it.
func TestCompileLeavesModuleUnchanged(t *testing.T) {
	corpus := progs.All
	if testing.Short() {
		gobmk, _ := progs.ByName("gobmk")
		corpus = []progs.Program{gobmk}
	}
	for _, p := range corpus {
		img, err := gen.Build(p.Src, gen.GCC12O3, p.Name)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		pl, err := core.LiftBinary(img, bench.Scaled(p, 2).Inputs())
		if err != nil {
			t.Fatalf("%s: lift: %v", p.Name, err)
		}
		if err := pl.Refine(); err != nil {
			t.Fatalf("%s: refine: %v", p.Name, err)
		}
		opt.Pipeline(pl.Mod)
		before := fmt.Sprint(pl.Mod)
		if _, err := codegen.Compile(pl.Mod, p.Name); err != nil {
			t.Fatalf("%s: codegen: %v", p.Name, err)
		}
		if fmt.Sprint(pl.Mod) != before {
			t.Errorf("%s: codegen changed the module it compiled", p.Name)
		}
	}
}
