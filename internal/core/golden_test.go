package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/minicc/gen"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata/*_golden.txt digests from the current pipeline output")

// goldenProfiles are the compiler profiles the golden digests cover: the
// two Table 1 configurations.
var goldenProfiles = []gen.Profile{gen.GCC12O3, gen.GCC44O3}

// goldenDigest runs the full pipeline (default options plus type recovery)
// on one corpus program and returns the SHA-256 of its fingerprintFull.
func goldenDigest(t *testing.T, p progs.Program, prof gen.Profile) string {
	t.Helper()
	img, err := gen.Build(p.Src, prof, p.Name)
	if err != nil {
		t.Fatalf("%s/%s: build: %v", p.Name, prof.Name, err)
	}
	pl, err := core.LiftBinaryOpts(img, p.Inputs(),
		core.Options{Jobs: 2, Lint: core.LintWarn, Types: true})
	if err != nil {
		t.Fatalf("%s/%s: lift: %v", p.Name, prof.Name, err)
	}
	if err := pl.Refine(); err != nil {
		t.Fatalf("%s/%s: refine: %v", p.Name, prof.Name, err)
	}
	sum := sha256.Sum256([]byte(fingerprintFull(t, pl, p.Name)))
	return hex.EncodeToString(sum[:])
}

// readGolden parses a golden file into "program profile" → digest.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open golden file (regenerate with -update-golden): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]+" "+fields[1]] = strings.Join(fields[2:], " ")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden hashes digest's output for every corpus program at both
// golden profiles and compares it to the digests recorded in path (the
// first three programs under -short). With -update-golden it rewrites the
// file instead, under the given header comment lines.
func checkGolden(t *testing.T, path string, header []string,
	digest func(t *testing.T, p progs.Program, prof gen.Profile) string) {
	t.Helper()
	corpus := progs.All
	if testing.Short() && !*updateGolden {
		corpus = corpus[:3]
	}
	var rows [][2]string
	for _, p := range corpus {
		for _, prof := range goldenProfiles {
			rows = append(rows, [2]string{p.Name + " " + prof.Name, digest(t, p, prof)})
		}
	}
	matchGolden(t, path, header, rows)
}

// matchGolden compares rows ("program profile" → recorded value, in
// corpus order) with the file at path, or rewrites the file under the
// given header comment lines with -update-golden.
func matchGolden(t *testing.T, path string, header []string, rows [][2]string) {
	t.Helper()
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t, path)
	}
	var out strings.Builder
	for _, h := range header {
		fmt.Fprintf(&out, "# %s\n", h)
	}
	for _, r := range rows {
		key, got := r[0], r[1]
		fmt.Fprintf(&out, "%s %s\n", key, got)
		if *updateGolden {
			continue
		}
		if w, ok := want[key]; !ok {
			t.Errorf("%s: %s records nothing", key, path)
		} else if got != w {
			t.Errorf("%s: got %s, %s records %s", key, got, path, w)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The refinement pipeline's output is pinned byte for byte: the refined
// IR, recovered layouts, lint report, typed layout and recompiled
// instruction stream of every corpus program at both Table 1 profiles
// hash to the digests recorded in testdata/refine_golden.txt. A
// performance change to any stage must leave every digest unchanged; a
// deliberate output change regenerates the file with
//
//	go test -run TestRefineGolden ./internal/core/ -update-golden
//
// and bumps core.PassVersion.
func TestRefineGolden(t *testing.T) {
	checkGolden(t, "testdata/refine_golden.txt", []string{
		"SHA-256 of fingerprintFull per corpus program and profile",
		"(Options{Lint: LintWarn, Types: true}); see golden_test.go.",
	}, goldenDigest)
}
