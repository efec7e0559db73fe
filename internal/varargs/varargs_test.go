package varargs_test

import (
	"bytes"
	"strings"
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/varargs"
)

func liftTo(t *testing.T, src string, inputs []machine.Input) *core.Pipeline {
	t.Helper()
	img, err := gen.Build(src, gen.GCC12O3, "t")
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
	return p
}

func countRaw(m *ir.Module) (raw, ext int) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				switch v.Op {
				case ir.OpCallExtRaw:
					raw++
				case ir.OpCallExt:
					ext++
				}
			}
		}
	}
	return
}

func TestFormatStringCounts(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int main() {
	printf("plain\n");
	printf("%d\n", 1);
	printf("%d %s %c\n", 2, "x", 'y');
	return 0;
}`
	p := liftTo(t, src, nil)
	rawBefore, _ := countRaw(p.Mod)
	if rawBefore != 3 {
		t.Fatalf("raw sites before = %d, want 3", rawBefore)
	}
	tr := varargs.NewTracer()
	ip, err := irexec.New(p.Mod, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip.Tr = tr
	if _, err := ip.Run(); err != nil {
		t.Fatal(err)
	}
	// Observed counts: 1, 2 and 4 arguments.
	got := map[int]bool{}
	for _, n := range tr.Counts {
		got[n] = true
	}
	for _, want := range []int{1, 2, 4} {
		if !got[want] {
			t.Errorf("argument count %d not recovered (counts: %v)", want, tr.Counts)
		}
	}
	if err := varargs.Apply(p.Mod, tr); err != nil {
		t.Fatal(err)
	}
	rawAfter, extAfter := countRaw(p.Mod)
	if rawAfter != 0 {
		t.Errorf("raw sites after = %d", rawAfter)
	}
	if extAfter < 3 {
		t.Errorf("explicit calls after = %d", extAfter)
	}
	// Behaviour preserved.
	var out bytes.Buffer
	res, err := irexec.Run(p.Mod, machine.Input{}, &out, nil)
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("run: %v exit %d", err, res.ExitCode)
	}
	if out.String() != "plain\n1\n2 x y\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestUnobservedRawSiteRejected(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
extern int input_int(int i);
int main() {
	if (input_int(0) > 0) printf("hi %d\n", 1);
	return 0;
}`
	// Lift with coverage of the printf branch, then apply an EMPTY tracer:
	// the raw site was lifted but never observed by it.
	p := liftTo(t, src, []machine.Input{{Ints: []int32{5}}})
	err := varargs.Apply(p.Mod, varargs.NewTracer())
	if err == nil {
		t.Error("unobserved raw call site accepted")
	}
}

// A raw site whose count could not be derived must be rejected with the
// recorded cause, not as a coverage gap: here the callee is a variadic
// extern the constraint database does not know.
func TestUnknownExternReported(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int main() {
	printf("%d\n", 1);
	return 0;
}`
	p := liftTo(t, src, nil)
	var site *ir.Value
	var fn *ir.Func
	for _, f := range p.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Insts {
				if v.Op == ir.OpCallExtRaw {
					site, fn = v, f
				}
			}
		}
	}
	if site == nil {
		t.Fatal("no raw variadic call site lifted")
	}
	site.Sym = "vlog_unknown"
	ip, err := irexec.New(p.Mod, machine.Input{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := varargs.NewTracer()
	tr.Exec(&irexec.Frame{Fn: fn, Mem: ip.Mem}, site, []uint32{0x1000}, 0)
	err = varargs.Apply(p.Mod, tr)
	if err == nil {
		t.Fatal("raw call to an unknown extern accepted")
	}
	if !strings.Contains(err.Error(), `"vlog_unknown" not in database`) ||
		strings.Contains(err.Error(), "never observed") {
		t.Errorf("error = %v, want the recorded database miss", err)
	}
}
