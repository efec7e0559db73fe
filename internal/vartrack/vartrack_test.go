package vartrack_test

import (
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/vartrack"
)

// trace runs the vartrack runtime over a program at a given profile and
// returns the result for inspection.
func trace(t *testing.T, src string, prof gen.Profile, inputs []machine.Input) (*core.Pipeline, *vartrack.Result) {
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
	tr := vartrack.NewTracer(p.SPOffsets)
	for _, input := range p.Inputs {
		ip, err := irexec.New(p.Mod, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		ip.Tr = tr
		if _, err := ip.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return p, tr.Result()
}

// findVar locates a variable whose absolute range covers [lo,hi) in fn.
func findVar(res *vartrack.Result, p *core.Pipeline, fn string, lo, hi int32) *vartrack.StackVar {
	f := p.Mod.FuncByName(fn)
	for _, v := range res.ByFn[f] {
		if !v.Defined {
			continue
		}
		vlo, vhi := v.AbsRange()
		if vlo <= lo && vhi >= hi {
			return v
		}
	}
	return nil
}

// An array accessed through a derived pointer must have bounds covering
// every touched element, anchored at its base (the Figure 2 interval rule).
func TestDerivedAccessBounds(t *testing.T) {
	src := `
extern int input_int(int i);
int main() {
	int a[6];
	int i;
	for (i = 0; i < 6; i++) a[i] = i;
	return a[input_int(0)];
}`
	p, res := trace(t, src, gen.GCC12O0, []machine.Input{{Ints: []int32{3}}})
	// Some variable must span all 24 bytes of a.
	f := p.Mod.FuncByName("main")
	found := false
	for _, v := range res.ByFn[f] {
		if v.Defined && v.High-v.Low >= 24 {
			found = true
		}
	}
	if !found {
		t.Errorf("no 24-byte object recovered; vars: %v", res.ByFn[f])
	}
}

// The end pointer of a pointer loop links to the array but never defines
// bounds of its own (§4.2.4), and never drags position 0 into the object.
func TestEndPointerStaysUndefined(t *testing.T) {
	src := `
int main() {
	int a[8];
	int i, s = 0;
	for (i = 0; i < 8; i++) { a[i] = 9; }
	for (i = 0; i < 8; i++) { s += a[i]; }
	return s;
}`
	p, res := trace(t, src, gen.GCC12O3, nil) // O3: pointer loops fire
	f := p.Mod.FuncByName("main")
	// There must be at least one linked pair involving an undefined var
	// (the end pointer) and the array's var.
	foundLink := false
	for _, pair := range res.Linked {
		if pair[0].Fn != f && pair[1].Fn != f {
			continue
		}
		if !pair[0].Defined || !pair[1].Defined {
			foundLink = true
		}
	}
	if !foundLink {
		t.Error("no link with an undefined (end-pointer) variable recorded")
	}
	// No defined variable's bounds may extend past the array into the
	// neighbour above (the end pointer must not anchor at offset 0).
	for _, v := range res.ByFn[f] {
		if v.Defined && v.Low < 0 {
			t.Errorf("variable anchored below its base: %v", v)
		}
	}
}

// Sub-register moves (false derives) must not create bounds on their own:
// only dereferences do (§4.2.3).
func TestFalseDeriveNoBounds(t *testing.T) {
	src := `
int main() {
	char a = 'x', b;
	int big = 7;
	b = a;                /* subreg copy on the clang16 profile */
	return b + big;
}`
	p, res := trace(t, src, gen.Clang16O3, nil)
	// Behaviour must be right and no variable may have absurd bounds.
	f := p.Mod.FuncByName("main")
	for _, v := range res.ByFn[f] {
		if v.Defined && (v.High-v.Low) > 64 {
			t.Errorf("suspiciously large object from a subreg move: %v", v)
		}
	}
	_ = p
}

// Pointers written to memory and read back keep their identity through the
// address map.
func TestAddressMapRoundTrip(t *testing.T) {
	src := `
struct p { int x; int y; };
struct p *id(struct p *v) { return v; }
int main() {
	struct p a;
	struct p *ptr;
	a.x = 31;
	ptr = id(&a);       /* pointer travels through call and return */
	ptr->y = 11;        /* write through the reloaded pointer */
	return a.y + a.x;   /* must see 11 + 31 */
}`
	p, res := trace(t, src, gen.GCC12O0, nil)
	// a must be recovered as one object of (at least) 8 bytes, because the
	// ptr->y write derived from the marshalled pointer.
	f := p.Mod.FuncByName("main")
	var best int32
	for _, sv := range res.ByFn[f] {
		if sv.Defined && sv.High-sv.Low > best {
			best = sv.High - sv.Low
		}
	}
	if best < 8 {
		t.Errorf("struct a not tracked through the address map (largest=%d)", best)
	}
}

// Stack arguments are observed per function with gap filling handled by the
// symbolizer; the raw observation set must contain the accessed slots.
func TestArgSlotObservation(t *testing.T) {
	src := `
int pick(int a, int b, int c) { return a + c; }
int main() { return pick(1, 2, 3); }`
	p, res := trace(t, src, gen.GCC12O0, nil)
	f := p.Mod.FuncByName("pick")
	slots := res.ArgSlots[f]
	if !slots[0] || !slots[2] {
		t.Errorf("arg slots observed = %v, want 0 and 2", slots)
	}
	if slots[1] {
		t.Errorf("slot 1 observed although never accessed: %v", slots)
	}
}

// External function effects: memcpy's ObjectSize bounds both buffers even
// without direct dereferences in the program.
func TestExtDBObjectSize(t *testing.T) {
	src := `
extern int memcpy(void *d, void *s, int n);
int main() {
	char src[16];
	char dst[16];
	src[0] = 'a';
	memcpy(dst, src, 16);
	return dst[0];
}`
	p, res := trace(t, src, gen.GCC12O0, nil)
	f := p.Mod.FuncByName("main")
	count16 := 0
	for _, v := range res.ByFn[f] {
		if v.Defined && v.High-v.Low >= 16 {
			count16++
		}
	}
	if count16 < 2 {
		t.Errorf("memcpy did not bound both buffers; 16-byte objects = %d", count16)
	}
	if v := findVar(res, p, "main", -8, -4); v == nil {
		t.Log("note: no variable covering [-8,-4); layout depends on profile")
	}
}
