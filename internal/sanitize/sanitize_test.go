package sanitize_test

import (
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/sanitize"
)

// A latent off-by-N: the index comes from input, traced in bounds.
const vulnSrc = `
extern int input_int(int i);
int main() {
	int a[4];
	int canary;
	canary = 7777;
	a[input_int(0)] = 42;
	return canary;
}`

func buildSanitized(t *testing.T, trace []machine.Input) (*core.Pipeline, int) {
	t.Helper()
	img, err := gen.Build(vulnSrc, gen.GCC12O0, "vuln")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	checks := sanitize.Apply(p.Mod)
	if err := ir.Verify(p.Mod); err != nil {
		t.Fatalf("verify after sanitize: %v", err)
	}
	return p, checks
}

func TestSanitizerCatchesOverflow(t *testing.T) {
	trace := []machine.Input{{Ints: []int32{2}}}
	p, checks := buildSanitized(t, trace)
	if checks == 0 {
		t.Fatal("no checks inserted on a symbolized module")
	}
	out, _, err := p.Recompile("vuln-san")
	if err != nil {
		t.Fatal(err)
	}
	// In-bounds input: normal behaviour.
	r, err := machine.Execute(out, machine.Input{Ints: []int32{2}}, nil)
	if err != nil || r.ExitCode != 7777 {
		t.Fatalf("in-bounds: exit %d err %v", r.ExitCode, err)
	}
	// Out-of-bounds index on the SAME traced path: without the sanitizer
	// this silently smashes a neighbouring object; with it, the violation
	// exit code fires.
	r, err = machine.Execute(out, machine.Input{Ints: []int32{9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != sanitize.ViolationExitCode {
		t.Errorf("overflow: exit %d, want %d", r.ExitCode, sanitize.ViolationExitCode)
	}
}

// Without symbolization there is nothing to check: the pass is a no-op on
// the opaque emulated stack — exactly the paper's motivation.
func TestSanitizerUselessWithoutSymbolization(t *testing.T) {
	img, err := gen.Build(vulnSrc, gen.GCC12O0, "vuln")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, []machine.Input{{Ints: []int32{2}}})
	if err != nil {
		t.Fatal(err)
	}
	if n := sanitize.Apply(p.Mod); n != 0 {
		t.Errorf("%d checks inserted on an unsymbolized module", n)
	}
}

// Checked binaries keep working on every traced input across the suite of
// shapes (derived pointers, struct members, char buffers).
func TestSanitizedBehaviourPreserved(t *testing.T) {
	src := `
extern int strlen(char *s);
extern int sprintf(char *dst, char *fmt, ...);
struct pair { int a; int b; };
int sum(int *v, int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += v[i];
	return s;
}
int main() {
	int data[6];
	char buf[16];
	struct pair p;
	int i;
	for (i = 0; i < 6; i++) data[i] = i * i;
	p.a = sum(data, 6);
	p.b = 3;
	sprintf(buf, "x%d", p.a + p.b);
	return strlen(buf) + p.a;
}`
	img, err := gen.Build(src, gen.GCC12O3, "t")
	if err != nil {
		t.Fatal(err)
	}
	nat, err := machine.Execute(img, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Refine(); err != nil {
		t.Fatal(err)
	}
	if n := sanitize.Apply(p.Mod); n == 0 {
		t.Fatal("no checks inserted")
	}
	out, _, err := p.Recompile("san")
	if err != nil {
		t.Fatal(err)
	}
	r, err := machine.Execute(out, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != nat.ExitCode {
		t.Errorf("sanitized exit %d, native %d", r.ExitCode, nat.ExitCode)
	}
}
