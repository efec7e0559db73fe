// Incremental re-lifting: the paper's titular property, "what you trace is
// what you get", demonstrated end to end. A binary lifted from a trace that
// covered only one branch of its input space recompiles to a binary that
// works perfectly on that branch — and hits an explicit trap, rather than
// computing garbage, the moment an input leaves traced coverage (§5.1).
// Re-lifting with one more input extends coverage and the trap disappears.
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

int triangle(int n) {
	int s = 0, i;
	for (i = 1; i <= n; i++) s += i;
	return s;
}

int power2(int n) {
	int r = 1;
	while (n > 0) { r *= 2; n--; }
	return r;
}

int main() {
	int n = input_int(0);
	int r;
	if (n < 10) {
		r = triangle(n);    /* small inputs: triangular number */
	} else {
		r = power2(n - 10); /* large inputs: a power of two */
	}
	printf("result=%d\n", r);
	return r % 251;
}
`

// buildRecompiled compiles the source, lifts it with the given trace
// inputs, refines, optimizes, and recompiles. The returned closure runs the
// recompiled binary on an input.
func buildRecompiled(inputs []machine.Input) func(machine.Input) (int32, string) {
	img, err := gen.Build(src, gen.GCC12O3, "incremental")
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.LiftBinary(img, inputs)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	out, _, err := p.Recompile("incremental-rec")
	if err != nil {
		log.Fatal(err)
	}
	return func(in machine.Input) (int32, string) {
		w := &writer{}
		res, err := machine.Execute(out, in, w)
		if err != nil {
			log.Fatal(err)
		}
		return res.ExitCode, w.s
	}
}

type writer struct{ s string }

func (w *writer) Write(p []byte) (int, error) { w.s += string(p); return len(p), nil }

func main() {
	small := machine.Input{Ints: []int32{7}}  // triangle path
	large := machine.Input{Ints: []int32{15}} // power2 path

	fmt.Println("== lift with ONE trace input (n=7, triangle path only) ==")
	run := buildRecompiled([]machine.Input{small})

	code, out := run(small)
	fmt.Printf("recompiled(n=7):  exit=%d output=%q   (traced path: works)\n", code, out)

	code, out = run(large)
	fmt.Printf("recompiled(n=15): exit=%d output=%q  (untraced path: explicit trap, not garbage)\n",
		code, out)
	if code != 254 {
		log.Fatalf("expected the trap exit code 254 on the untraced path, got %d", code)
	}

	fmt.Println()
	fmt.Println("== re-lift with BOTH inputs (n=7 and n=15) ==")
	run = buildRecompiled([]machine.Input{small, large})

	code, out = run(small)
	fmt.Printf("recompiled(n=7):  exit=%d output=%q\n", code, out)
	code, out = run(large)
	fmt.Printf("recompiled(n=15): exit=%d output=%q\n", code, out)
	if out != "result=32\n" || code != 32 {
		log.Fatalf("re-lifted binary wrong on n=15: exit=%d %q", code, out)
	}

	fmt.Println()
	fmt.Println("Coverage extended; the trap is gone. What you trace is what you get.")
}
