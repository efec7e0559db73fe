package wytiwyg_test

import (
	"fmt"
	"log"

	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

// Example walks the whole pipeline on a binary whose source is about to be
// thrown away: compile (this stands in for the vendor's long-lost build),
// trace, lift, refine, optimize, recompile, and run the recovered binary.
func Example() {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main() { return fib(12); }
`
	img, err := gen.Build(src, gen.GCC44O3, "example")
	if err != nil {
		log.Fatal(err)
	}
	// From here on, only the binary exists.
	p, err := core.LiftBinary(img, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	out, _, err := p.Recompile("example-recovered")
	if err != nil {
		log.Fatal(err)
	}
	res, err := machine.Execute(out, machine.Input{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functions recovered: %d\n", len(p.Rec.Funcs))
	fmt.Printf("recovered binary exit code: %d\n", res.ExitCode)
	// Output:
	// functions recovered: 3
	// recovered binary exit code: 144
}
