// Partial-coverage recovery: the hybrid static+dynamic story. A binary is
// traced on ONE input that exercises a single operation of a function-pointer
// dispatch table; the other operations never execute and would normally
// recompile to trap stubs. With static recovery enabled, the cold operations
// are disassembled from the image, lifted, and admitted when value-set
// analysis proves their frames safe — so inputs the trace never saw now run
// correctly. One operation deliberately leaks the address of a local; its
// layout cannot be verified, so it stays behind a trap stub (the fallback
// ladder: traced, then static-verified, then trap).
package main

import (
	"fmt"
	"log"

	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

const src = `
extern int input_int(int i);
extern int printf(char *fmt, ...);

int op_add(int a, int b) { return a + b; }

int op_mul(int a, int b) { return a * b; }

int op_tab(int a, int b) {
	int t[4];
	t[0] = a; t[1] = b; t[2] = a + b; t[3] = a - b;
	return t[0] + t[1] + t[2] + t[3];
}

int *leak;
int op_leak(int a, int b) {
	int x;
	x = a + b;
	leak = &x;          /* the local's address escapes: unverifiable */
	return *leak + b;
}

int apply(fnptr f, int a, int b) { return f(a, b); }

fnptr ops[4];

int main() {
	int op, a, b, r;
	ops[0] = &op_add;
	ops[1] = &op_mul;
	ops[2] = &op_tab;
	ops[3] = &op_leak;
	op = input_int(0);
	a = input_int(1);
	b = input_int(2);
	r = apply(ops[op & 3], a, b);
	printf("r=%d\n", r);
	return r & 63;
}
`

// build compiles the source, lifts it from traces over traceInputs, and
// recompiles; static cold-code recovery is optional.
func build(traceInputs []machine.Input, static bool) *core.Pipeline {
	img, err := gen.Build(src, gen.GCC12O3, "coverage")
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.LiftBinaryOpts(img, traceInputs, core.Options{StaticRecover: static})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	return p
}

type writer struct{ s string }

func (w *writer) Write(p []byte) (int, error) { w.s += string(p); return len(p), nil }

func main() {
	traceInput := machine.Input{Ints: []int32{0, 5, 7}} // op_add only
	coldInputs := []machine.Input{
		{Ints: []int32{1, 5, 7}}, // op_mul: statically recoverable
		{Ints: []int32{2, 5, 7}}, // op_tab: bounded local array, recoverable
		{Ints: []int32{3, 9, 4}}, // op_leak: escaping local, must stay a trap
	}

	img, err := gen.Build(src, gen.GCC12O3, "coverage")
	if err != nil {
		log.Fatal(err)
	}

	for _, static := range []bool{false, true} {
		mode := "dynamic only"
		if static {
			mode = "with -static-recover"
		}
		fmt.Printf("== trace {op=0} %s ==\n", mode)
		p := build([]machine.Input{traceInput}, static)
		if static {
			admitted := 0
			for _, st := range p.ColdStats {
				verdict := "degraded: " + st.Reason
				if st.Admitted {
					verdict = "admitted"
					admitted++
				}
				fmt.Printf("  %-8s %s\n", st.Func, verdict)
			}
			fmt.Printf("  %d/%d cold candidates admitted\n", admitted, len(p.ColdStats))
		}
		out, _, err := p.Recompile("coverage-rec")
		if err != nil {
			log.Fatal(err)
		}

		trapped := 0
		for _, in := range coldInputs {
			w := &writer{}
			res, err := machine.Execute(out, in, w)
			if err != nil {
				log.Fatal(err)
			}
			nw := &writer{}
			nat, err := machine.Execute(img, in, nw)
			if err != nil {
				log.Fatal(err)
			}
			if len(res.StubHits) > 0 {
				trapped++
				fmt.Printf("  op=%d: trap stub (exit=%d) %v\n", in.Ints[0], res.ExitCode, res.StubHits)
				continue
			}
			if res.ExitCode != nat.ExitCode || w.s != nw.s {
				log.Fatalf("recovered run diverged on op=%d: exit=%d vs %d, %q vs %q",
					in.Ints[0], res.ExitCode, nat.ExitCode, w.s, nw.s)
			}
			fmt.Printf("  op=%d: exit=%d output=%q  MATCH\n", in.Ints[0], res.ExitCode, w.s)
		}
		fmt.Printf("  stub-hit rate: %d/%d untraced input(s)\n\n", trapped, len(coldInputs))
	}
	fmt.Println("Static recovery lifted the provably safe cold operations;")
	fmt.Println("the unverifiable one kept its trap. No unsound admissions.")
}
