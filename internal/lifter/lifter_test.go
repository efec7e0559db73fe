package lifter

import (
	"bytes"
	"errors"
	"testing"

	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/tracer"
)

// liftProgram compiles src, traces it under the inputs, and lifts it.
func liftProgram(t *testing.T, src string, prof gen.Profile, inputs []machine.Input) *ir.Module {
	t.Helper()
	img, err := gen.Build(src, prof, "t")
	if err != nil {
		t.Fatalf("%s: build: %v", prof.Name, err)
	}
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	tr := tracer.New(img)
	if err := tr.RunAll(inputs, 1); err != nil {
		t.Fatalf("%s: trace: %v", prof.Name, err)
	}
	cfg := tr.BuildCFG()
	rec, err := funcrec.Recover(cfg)
	if err != nil {
		t.Fatalf("%s: funcrec: %v", prof.Name, err)
	}
	mod, err := LiftJobs(img, cfg, rec, 1)
	if err != nil {
		t.Fatalf("%s: lift: %v", prof.Name, err)
	}
	return mod
}

// roundTrip checks that the lifted module behaves exactly like the native
// binary for every input, under every compiler profile.
func roundTrip(t *testing.T, src string, inputs []machine.Input) {
	t.Helper()
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	for _, prof := range gen.Profiles {
		img, err := gen.Build(src, prof, "t")
		if err != nil {
			t.Fatalf("%s: build: %v", prof.Name, err)
		}
		mod := liftProgram(t, src, prof, inputs)
		for i, input := range inputs {
			var nativeOut bytes.Buffer
			nat, err := machine.Execute(img, input, &nativeOut)
			if err != nil {
				t.Fatalf("%s input %d: native: %v", prof.Name, i, err)
			}
			var liftedOut bytes.Buffer
			res, err := irexec.Run(mod, input, &liftedOut, nil)
			if err != nil {
				t.Fatalf("%s input %d: lifted: %v", prof.Name, i, err)
			}
			if res.ExitCode != nat.ExitCode {
				t.Errorf("%s input %d: exit = %d, native %d", prof.Name, i, res.ExitCode, nat.ExitCode)
			}
			if liftedOut.String() != nativeOut.String() {
				t.Errorf("%s input %d: output %q, native %q",
					prof.Name, i, liftedOut.String(), nativeOut.String())
			}
		}
	}
}

func TestLiftStraightLine(t *testing.T) {
	roundTrip(t, `int main() { return 41 + 1; }`, nil)
}

func TestLiftArithAndBranches(t *testing.T) {
	roundTrip(t, `
extern int input_int(int i);
int main() {
	int n = input_int(0);
	int s = 0, i;
	for (i = 0; i < n; i++) {
		if (i % 3 == 0) s += i;
		else s -= 1;
	}
	return s;
}`, []machine.Input{{Ints: []int32{20}}, {Ints: []int32{7}}})
}

func TestLiftCallsAndRecursion(t *testing.T) {
	roundTrip(t, `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(10); }`, nil)
}

func TestLiftStackHeavy(t *testing.T) {
	roundTrip(t, `
struct p { int x; int y; };
int f3(int n) { return n / 12; }
struct p *f2(struct p *a, struct p *b) { return a; }
int f1() {
	struct p *ptr;
	struct p a;
	struct p b[3];
	a.x = 3;
	a.y = 4;
	ptr = f2(&a, b);
	b[f3(sizeof(b))] = a;
	ptr->y = b[1].x;
	return ptr->y * 100 + b[2].x * 10 + b[2].y;
}
int main() { return f1(); }`, nil)
}

func TestLiftPrintfVarargs(t *testing.T) {
	roundTrip(t, `
extern int printf(char *fmt, ...);
int main() {
	int i;
	for (i = 0; i < 3; i++) printf("%d:%c ", i, 'a' + i);
	printf("done %s\n", "ok");
	return 0;
}`, nil)
}

func TestLiftExternals(t *testing.T) {
	roundTrip(t, `
extern void *malloc(int n);
extern int memset(void *p, int v, int n);
extern int strlen(char *s);
extern int sprintf(char *dst, char *fmt, ...);
int main() {
	char buf[32];
	int *h = (int*)malloc(16);
	memset(h, 0, 16);
	h[2] = 9;
	sprintf(buf, "x=%d", h[2]);
	return strlen(buf) + h[2];
}`, nil)
}

func TestLiftTailCalls(t *testing.T) {
	roundTrip(t, `
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int main() { return isEven(50) * 10 + isOdd(17); }`, nil)
}

func TestLiftFnPtrIndirectCalls(t *testing.T) {
	roundTrip(t, `
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int apply(fnptr f, int v) { return f(v); }
int main() { return apply(&twice, 10) + apply(&thrice, 100); }`, nil)
}

func TestLiftSwitchJumpTable(t *testing.T) {
	roundTrip(t, `
extern int input_int(int i);
int classify(int v) {
	switch (v) {
	case 0: return 10;
	case 1: return 20;
	case 2: return 30;
	case 3: return 40;
	case 5: return 60;
	default: return -1;
	}
}
int main() { return classify(input_int(0)) + classify(input_int(1)); }`,
		[]machine.Input{
			{Ints: []int32{0, 3}},
			{Ints: []int32{2, 5}},
			{Ints: []int32{1, 9}},
		})
}

func TestLiftGlobalsAndStrings(t *testing.T) {
	roundTrip(t, `
extern int puts(char *s);
extern int strcmp(char *a, char *b);
int counter = 3;
char *greeting = "hello";
int main() {
	counter += 4;
	if (strcmp(greeting, "hello") == 0) puts("match");
	return counter;
}`, nil)
}

func TestLiftCharsSubreg(t *testing.T) {
	roundTrip(t, `
int main() {
	char a = 'q', b;
	char buf[6];
	int i;
	b = a;                /* subreg copy on clang16 */
	for (i = 0; i < 5; i++) buf[i] = 'A' + i;
	buf[5] = 0;
	return b + buf[4];
}`, nil)
}

// Untraced paths must trap rather than compute wrong results: trace with one
// input, run the lifted module with another that takes a different branch.
func TestLiftUntracedPathTraps(t *testing.T) {
	src := `
extern int input_int(int i);
int main() {
	if (input_int(0) > 10) return 1;
	return 2;
}`
	prof := gen.GCC12O3
	mod := liftProgram(t, src, prof, []machine.Input{{Ints: []int32{5}}})
	// Same branch: fine.
	res, err := irexec.Run(mod, machine.Input{Ints: []int32{7}}, nil, nil)
	if err != nil || res.ExitCode != 2 {
		t.Fatalf("traced path: %v, exit %d", err, res.ExitCode)
	}
	// Other branch: trap.
	_, err = irexec.Run(mod, machine.Input{Ints: []int32{50}}, nil, nil)
	if !errors.Is(err, irexec.ErrTrap) {
		t.Errorf("untraced path: err = %v, want trap", err)
	}
}

// Incremental lifting: merging a second trace covers the other branch.
func TestLiftIncrementalCoverage(t *testing.T) {
	src := `
extern int input_int(int i);
int main() {
	if (input_int(0) > 10) return 1;
	return 2;
}`
	mod := liftProgram(t, src, gen.GCC12O3,
		[]machine.Input{{Ints: []int32{5}}, {Ints: []int32{50}}})
	for _, tc := range []struct {
		in   int32
		want int32
	}{{5, 2}, {50, 1}} {
		res, err := irexec.Run(mod, machine.Input{Ints: []int32{tc.in}}, nil, nil)
		if err != nil || res.ExitCode != tc.want {
			t.Errorf("input %d: %v, exit %d want %d", tc.in, err, res.ExitCode, tc.want)
		}
	}
}

func TestLiftedModuleShape(t *testing.T) {
	mod := liftProgram(t, `
int add(int a, int b) { return a + b; }
int main() { return add(40, 2); }`, gen.GCC12O3, nil)
	f := mod.FuncByName("add")
	if f == nil {
		t.Fatal("add not lifted")
	}
	// BinRec shape: full register file in and out.
	if len(f.Params) != 8 || f.NumRet != 8 {
		t.Errorf("signature: %d params, %d rets", len(f.Params), f.NumRet)
	}
	if mod.Entry == nil || mod.Entry.Name != "_start" {
		t.Errorf("entry = %v", mod.Entry)
	}
	if err := ir.Verify(mod); err != nil {
		t.Errorf("verify: %v", err)
	}
}
