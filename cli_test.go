package wytiwyg_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Build and exercise the command-line tools end to end: the smoke test a
// release would gate on. Skipped with -short (it compiles two binaries).
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	wytiwyg := filepath.Join(dir, "wytiwyg")
	experiments := filepath.Join(dir, "experiments")

	for bin, pkg := range map[string]string{
		wytiwyg:     "./cmd/wytiwyg",
		experiments: "./cmd/experiments",
	} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	srcFile := filepath.Join(dir, "demo.c")
	src := `
extern int printf(char *fmt, ...);
int sq(int x) { return x * x; }
int main() {
	int a[4];
	int i, s = 0;
	for (i = 0; i < 4; i++) a[i] = sq(i + 1);
	for (i = 0; i < 4; i++) s += a[i];
	printf("%d\n", s);
	return 0;
}
`
	if err := os.WriteFile(srcFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("wytiwyg-src-layout", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "-src", srcFile, "-profile", "gcc44-O3", "-emit", "layout").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		for _, want := range []string{"frame", "main"} {
			if !strings.Contains(s, want) {
				t.Errorf("output lacks %q:\n%s", want, s)
			}
		}
	})

	t.Run("wytiwyg-emit-ir", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "-src", srcFile, "-emit", "ir").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "func") {
			t.Errorf("no IR in output:\n%.400s", out)
		}
	})

	t.Run("wytiwyg-bench", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "-bench", "mcf", "-profile", "gcc12-O0").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
	})

	t.Run("wytiwyg-timings", func(t *testing.T) {
		// The lint computes every function's VSA fixpoint, so the count
		// prints without -vsa or -types.
		out, err := exec.Command(wytiwyg, "-bench", "mcf", "-timings").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "vsa fixpoints: ") {
			t.Errorf("no fixpoint line:\n%s", out)
		}
	})

	t.Run("wytiwyg-sanitize", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "-src", srcFile, "-sanitize").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "sanitizer:") ||
			strings.Contains(string(out), "sanitizer: 0 ") {
			t.Errorf("sanitizer inserted no checks:\n%s", out)
		}
		if !strings.Contains(string(out), "MATCH") {
			t.Errorf("sanitized binary diverged:\n%s", out)
		}
	})

	t.Run("wytiwyg-bad-profile", func(t *testing.T) {
		if err := exec.Command(wytiwyg, "-src", srcFile, "-profile", "icc").Run(); err == nil {
			t.Error("unknown profile accepted")
		}
	})

	t.Run("wytiwyg-lint-src", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "lint", "-src", srcFile).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "lint: 0 error(s)") {
			t.Errorf("clean source should lint with zero errors:\n%s", out)
		}
	})

	t.Run("wytiwyg-lint-json", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "lint", "-bench", "mcf", "-json").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		for _, want := range []string{`"program": "mcf"`, `"errors": 0`, `"diagnostics"`} {
			if !strings.Contains(s, want) {
				t.Errorf("JSON output lacks %q:\n%.600s", want, s)
			}
		}
	})

	t.Run("wytiwyg-lint-fail-mode", func(t *testing.T) {
		// -lint fail on a clean program must not abort refinement.
		out, err := exec.Command(wytiwyg, "-src", srcFile, "-lint", "fail").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "lint: 0 error(s)") {
			t.Errorf("expected lint summary line:\n%s", out)
		}
	})

	t.Run("wytiwyg-types-truth", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "types", "-bench", "mcf", "-truth").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		for _, want := range []string{"func main:", "compiler ground truth:", "typed accuracy:"} {
			if !strings.Contains(s, want) {
				t.Errorf("output lacks %q:\n%s", want, s)
			}
		}
	})

	t.Run("wytiwyg-types-json", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "types", "-bench", "mcf", "-truth", "-json").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		for _, want := range []string{`"program": "mcf"`, `"report"`, `"precision"`, `"recall"`} {
			if !strings.Contains(s, want) {
				t.Errorf("JSON output lacks %q:\n%.600s", want, s)
			}
		}
	})

	t.Run("wytiwyg-submit-local-lint", func(t *testing.T) {
		out, err := exec.Command(wytiwyg, "submit", "-local", "-kind", "lint", "-bench", "mcf").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		for _, want := range []string{"lint mcf:", "lint: 0 error(s)"} {
			if !strings.Contains(s, want) {
				t.Errorf("output lacks %q:\n%s", want, s)
			}
		}
	})

	// Every subcommand that runs the pipeline names its program with
	// exactly one of -src and -bench (and lint's -all stands alone).
	t.Run("wytiwyg-conflicting-targets", func(t *testing.T) {
		for _, args := range [][]string{
			{"-src", srcFile, "-bench", "mcf"},
			{"lint", "-src", srcFile, "-bench", "mcf"},
			{"types", "-src", srcFile, "-bench", "mcf"},
			{"submit", "-local", "-src", srcFile, "-bench", "mcf"},
			{"lint", "-all", "-bench", "mcf"},
		} {
			if out, err := exec.Command(wytiwyg, args...).CombinedOutput(); err == nil {
				t.Errorf("wytiwyg %s accepted:\n%.400s", strings.Join(args, " "), out)
			}
		}
	})

	t.Run("experiments-table1", func(t *testing.T) {
		out, err := exec.Command(experiments, "-exp", "table1", "-scale", "2", "-progs", "mcf").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		s := string(out)
		for _, want := range []string{"Table 1", "mcf", "Geomean"} {
			if !strings.Contains(s, want) {
				t.Errorf("output lacks %q:\n%s", want, s)
			}
		}
	})

	t.Run("experiments-unknown-prog", func(t *testing.T) {
		if err := exec.Command(experiments, "-exp", "table1", "-progs", "nope").Run(); err == nil {
			t.Error("unknown benchmark accepted")
		}
	})
}
