package wytiwyg_test

import (
	"bytes"
	"fmt"
	"testing"

	"wytiwyg/internal/bench"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

// Top-level integration: one benchmark program through the complete public
// pipeline at every compiler profile — compile, trace, lift, refine,
// optimize, recompile — with output equality, a reasonable layout, and the
// headline performance property (symbolized beats non-symbolized) all
// checked in one place.
func TestEndToEndAllProfiles(t *testing.T) {
	p, ok := progs.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload missing")
	}
	p = bench.Scaled(p, benchScale)
	for _, prof := range gen.Profiles {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			img, err := gen.Build(p.Src, prof, p.Name)
			if err != nil {
				t.Fatal(err)
			}
			var natOut bytes.Buffer
			nat, err := machine.Execute(img, p.Ref, &natOut)
			if err != nil {
				t.Fatal(err)
			}

			pl, err := core.LiftBinary(img, p.Inputs())
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Refine(); err != nil {
				t.Fatal(err)
			}
			if pl.Recovered == nil || len(pl.Recovered.Frames) == 0 {
				t.Fatal("no recovered layout")
			}
			rec, _, err := pl.Recompile(p.Name + "-rec")
			if err != nil {
				t.Fatal(err)
			}

			var recOut bytes.Buffer
			res, err := machine.Execute(rec, p.Ref, &recOut)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExitCode != nat.ExitCode || recOut.String() != natOut.String() {
				t.Fatalf("behaviour diverged: exit %d vs %d, output %q vs %q",
					res.ExitCode, nat.ExitCode, recOut.String(), natOut.String())
			}

			ratio := float64(res.Cycles) / float64(nat.Cycles)
			if ratio > 2.5 {
				t.Errorf("symbolized recompile is %.2fx the input binary; expected well under the ~3x no-sym baseline", ratio)
			}
			t.Logf("%s: recompiled/native = %.2f, %d frames recovered",
				prof.Name, ratio, len(pl.Recovered.Frames))
		})
	}
}

// The README's four-line quickstart, as a test: everything a new user runs
// first must keep working.
func TestQuickstartFlow(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int sum(int *v, int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += v[i];
	return s;
}
int main() {
	int data[10];
	int i;
	for (i = 0; i < 10; i++) data[i] = i * i;
	printf("sum=%d\n", sum(data, 10));
	return 0;
}
`
	img, err := gen.Build(src, gen.GCC12O3, "quickstart")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.LiftBinary(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Refine(); err != nil {
		t.Fatal(err)
	}
	out, _, err := pl.Recompile("quickstart-rec")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := machine.Execute(out, machine.Input{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("sum=%d\n", 285)
	if res.ExitCode != 0 || buf.String() != want {
		t.Fatalf("exit=%d output=%q, want 0/%q", res.ExitCode, buf.String(), want)
	}
}
