// Sanitizer: harden a binary without source code. The paper's introduction
// argues that users of legacy binaries "cannot ... deploy sanitizers and
// mitigations that are readily available in existing compilers" — and that
// memory-layout-affecting transformations like AddressSanitizer require
// recovered local variables. This example retrofits stack bounds checks
// onto a recompiled binary, which is only possible because symbolization
// partitioned the frame into distinct objects.
package main

import (
	"fmt"
	"log"

	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/sanitize"
)

// A classic latent bug: the index is attacker-controlled, the buffer is 4
// elements, and `secret` sits right above it in the frame.
const src = `
extern int input_int(int i);
extern int printf(char *fmt, ...);
int main() {
	int buf[4];
	int secret;
	secret = 1234;
	buf[input_int(0)] = 9999;     /* no bounds check in the original! */
	printf("secret=%d\n", secret);
	return 0;
}
`

func main() {
	img, err := gen.Build(src, gen.GCC44O3, "legacy")
	if err != nil {
		log.Fatal(err)
	}

	// The vendor is gone; all we have is the binary and benign inputs.
	p, err := core.LiftBinary(img, []machine.Input{{Ints: []int32{1}}})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		log.Fatal(err)
	}
	checks := sanitize.Apply(p.Mod)
	hardened, _, err := p.Recompile("hardened")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d stack bounds checks into the recovered binary\n\n", checks)

	for _, idx := range []int32{1, 5} {
		input := machine.Input{Ints: []int32{idx}}
		orig, err := machine.Execute(img, input, nil)
		if err != nil {
			log.Fatal(err)
		}
		hard, err := machine.Execute(hardened, input, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("index %d:\n", idx)
		fmt.Printf("  original binary: exit=%d (buf[%d] written blindly)\n", orig.ExitCode, idx)
		if hard.ExitCode == sanitize.ViolationExitCode {
			fmt.Printf("  hardened binary: exit=%d — OUT-OF-BOUNDS STACK WRITE BLOCKED\n\n", hard.ExitCode)
		} else {
			fmt.Printf("  hardened binary: exit=%d (in bounds, behaviour unchanged)\n\n", hard.ExitCode)
		}
	}
}
