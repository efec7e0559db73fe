package staticsym_test

import (
	"bytes"
	"errors"
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/staticsym"
)

// prep lifts a binary and runs the refinements SecondWrite's own analyses
// stand in for (register classification + stack-reference folding).
func prep(t *testing.T, src string, prof gen.Profile, inputs []machine.Input) *core.Pipeline {
	t.Helper()
	img, err := gen.Build(src, prof, "t")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.LiftBinary(img, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RefineRegSave(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineVarArgs(); err != nil {
		t.Fatal(err)
	}
	if err := p.RefineStackRef(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStaticSymbolizeSimple(t *testing.T) {
	src := `
int add3(int a, int b, int c) {
	int x = a + b;
	int y = x + c;
	return y;
}
int main() { return add3(10, 20, 12); }`
	for _, prof := range gen.Profiles {
		p := prep(t, src, prof, nil)
		if _, err := staticsym.Apply(p.Mod, p.SPOffsets); err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		// Behaviour preserved.
		var nat, got bytes.Buffer
		n, err := machine.Execute(p.Img, machine.Input{}, &nat)
		if err != nil {
			t.Fatal(err)
		}
		r, err := irexec.Run(p.Mod, machine.Input{}, &got, nil)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if r.ExitCode != n.ExitCode {
			t.Errorf("%s: exit %d vs %d", prof.Name, r.ExitCode, n.ExitCode)
		}
	}
}

// Dynamically computed stack addresses force the blob fallback — and the
// blob must still behave correctly.
func TestBlobFallbackBehaviour(t *testing.T) {
	src := `
extern int input_int(int i);
int main() {
	int arr[8];
	int i, s = 0;
	int n = input_int(0);
	for (i = 0; i < 8; i++) arr[i] = i * n;
	for (i = 0; i < 8; i++) s += arr[i];
	return s;
}`
	inputs := []machine.Input{{Ints: []int32{3}}}
	p := prep(t, src, gen.GCC12O0, inputs)
	rec, err := staticsym.Apply(p.Mod, p.SPOffsets)
	if err != nil {
		t.Fatal(err)
	}
	var nat bytes.Buffer
	n, err := machine.Execute(p.Img, inputs[0], &nat)
	if err != nil {
		t.Fatal(err)
	}
	r, err := irexec.Run(p.Mod, inputs[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExitCode != n.ExitCode {
		t.Fatalf("exit %d vs %d", r.ExitCode, n.ExitCode)
	}
	// The blob: main's frame must be dominated by one big object (the
	// paper's complaint about SecondWrite).
	fr := rec.Frame("main")
	if fr == nil || len(fr.Vars) == 0 {
		t.Fatal("no recovered frame")
	}
	var maxSize uint32
	for _, v := range fr.Vars {
		if v.Size > maxSize {
			maxSize = v.Size
		}
	}
	if maxSize < 32 {
		t.Errorf("expected a blob covering the array area, largest object is %d bytes: %v",
			maxSize, fr)
	}
	// And optimization+recompilation still works.
	img2, _, err := p.Recompile("sw")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := machine.Execute(img2, inputs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ExitCode != n.ExitCode {
		t.Errorf("recompiled exit %d vs %d", r2.ExitCode, n.ExitCode)
	}
}

// Jump tables defeat the static symbolizer (the paper's bzip2/gobmk
// findings).
func TestJumpTableUnsupported(t *testing.T) {
	src := `
extern int input_int(int i);
int classify(int v) {
	switch (v) {
	case 0: return 10;
	case 1: return 20;
	case 2: return 30;
	case 3: return 40;
	case 4: return 50;
	default: return -1;
	}
}
int main() { return classify(input_int(0)); }`
	inputs := []machine.Input{{Ints: []int32{2}}, {Ints: []int32{0}}, {Ints: []int32{4}}}
	p := prep(t, src, gen.GCC12O3, inputs) // O3 profile emits the jump table
	_, err := staticsym.Apply(p.Mod, p.SPOffsets)
	if !errors.Is(err, staticsym.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// Fine splitting: simple frames split at reference boundaries.
func TestFineSplitting(t *testing.T) {
	src := `
int f(int a) {
	int x = a + 1;
	int y = a + 2;
	return x * y;
}
int main() { return f(5); }`
	p := prep(t, src, gen.GCC12O0, nil)
	rec, err := staticsym.Apply(p.Mod, p.SPOffsets)
	if err != nil {
		t.Fatal(err)
	}
	fr := rec.Frame("f")
	if fr == nil {
		t.Fatal("no frame for f")
	}
	if len(fr.Vars) < 2 {
		t.Errorf("static splitter produced %d objects, want >= 2: %v", len(fr.Vars), fr)
	}
}
