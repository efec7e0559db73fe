package refcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/layout"
)

func testFuncEntry() *FuncEntry {
	return &FuncEntry{
		Func: "main",
		Diags: []analysis.Diag{
			{Check: "bounds", Severity: analysis.Warn, Func: "main",
				Loc: "main:b2:4", Msg: "unbounded index"},
		},
	}
}

func TestFuncEntryRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("func", []byte("pass-1"), []byte("main"))
	if _, ok := c.GetFunc(k); ok {
		t.Fatal("hit on an empty cache")
	}
	want := testFuncEntry()
	if err := c.PutFunc(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetFunc(k)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the entry:\ngot  %+v\nwant %+v", got, want)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put", s)
	}
	if n, err := c.Len(); n != 1 || err != nil {
		t.Errorf("Len = %d, %v, want 1, nil", n, err)
	}
}

// An entry written while FuncEntry still carried the recovered frame must
// keep decoding as a hit: the unknown field is ignored.
func TestFuncEntryOldFrameDecodes(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("func", []byte("pass-1"), []byte("main"))
	old := struct {
		*FuncEntry
		Frame []layout.Var `json:"frame"`
	}{testFuncEntry(), []layout.Var{{Name: "v1", Offset: -8, Size: 4}}}
	if err := c.put(k, old); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetFunc(k)
	if !ok {
		t.Fatal("an entry with a frame field missed")
	}
	if want := testFuncEntry(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

func TestProgramEntryRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog := layout.NewProgram()
	prog.Add(&layout.Frame{Func: "main", Vars: []layout.Var{{Name: "x", Offset: -4, Size: 4}}})
	rep := &analysis.Report{Diags: []analysis.Diag{
		{Check: "height", Severity: analysis.Error, Func: "main", Msg: "imbalance"},
	}}
	k := NewKey("program", []byte("image"))
	if err := c.PutProgram(k, ProgramFromLayout(prog, rep)); err != nil {
		t.Fatal(err)
	}
	e, ok := c.GetProgram(k)
	if !ok {
		t.Fatal("miss after put")
	}
	prog2, rep2 := LayoutFromProgram(e)
	if got, want := prog2.Frame("main").String(), prog.Frame("main").String(); got != want {
		t.Errorf("frame changed: got %q, want %q", got, want)
	}
	if got, want := rep2.String(), rep.String(); got != want {
		t.Errorf("report changed: got %q, want %q", got, want)
	}
}

// Content addressing is the invalidation mechanism: any change to the tag
// or any part must move the key, and the part boundaries must be
// unambiguous (no concatenation collisions).
func TestKeySeparation(t *testing.T) {
	base := NewKey("t", []byte("ab"), []byte("c"))
	for name, k := range map[string]Key{
		"different tag":   NewKey("u", []byte("ab"), []byte("c")),
		"different part":  NewKey("t", []byte("ab"), []byte("d")),
		"shifted split":   NewKey("t", []byte("a"), []byte("bc")),
		"merged parts":    NewKey("t", []byte("abc")),
		"extra empty":     NewKey("t", []byte("ab"), []byte("c"), nil),
		"dropped part":    NewKey("t", []byte("ab")),
		"reordered parts": NewKey("t", []byte("c"), []byte("ab")),
	} {
		if k == base {
			t.Errorf("%s collides with the base key", name)
		}
	}
	if NewKey("t", []byte("ab"), []byte("c")) != base {
		t.Error("identical inputs produced different keys")
	}
}

func TestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("func", []byte("x"))
	if err := c1.PutFunc(k, testFuncEntry()); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.GetFunc(k); !ok {
		t.Error("entry not visible through a fresh handle on the same directory")
	}
}

// A corrupted entry must behave exactly like a miss: deleted, counted, and
// transparently recomputable. The cache can slow a run down, never fail it.
func TestCorruptEntryRecovered(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("func", []byte("x"))
	if err := c.PutFunc(k, testFuncEntry()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(k), []byte("{truncated garb"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetFunc(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want Corrupt 1", s)
	}
	if _, err := os.Stat(c.path(k)); !os.IsNotExist(err) {
		t.Errorf("corrupt entry not removed: %v", err)
	}
	// The slot is reusable: a recompute stores and serves normally.
	if err := c.PutFunc(k, testFuncEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetFunc(k); !ok {
		t.Error("miss after recomputing the corrupt entry")
	}
}

// An entry written by a future (or past) format version is another
// binary's valid data: it must read as a plain miss and SURVIVE the get.
// (The old behaviour deleted it — an older binary sharing a daemon's
// cache directory would destroy a newer binary's entries on every
// lookup.)
func TestForeignVersionSurvivesGet(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("func", []byte("x"))
	data, err := json.Marshal(envelope{Version: version + 1, Payload: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(k), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetFunc(k); ok {
		t.Fatal("foreign-version entry served as a hit")
	}
	if s := c.Stats(); s.Foreign != 1 || s.Corrupt != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v, want Foreign 1, Corrupt 0, Misses 1", s)
	}
	got, err := os.ReadFile(c.path(k))
	if err != nil {
		t.Fatalf("foreign-version entry deleted by get: %v", err)
	}
	if string(got) != string(data) {
		t.Error("foreign-version entry rewritten by get")
	}
	// A second get behaves identically — the entry keeps surviving.
	if _, ok := c.GetFunc(k); ok {
		t.Fatal("foreign-version entry served as a hit on the second get")
	}
	if s := c.Stats(); s.Foreign != 2 {
		t.Errorf("stats = %+v, want Foreign 2", s)
	}
}

// A payload that decodes as JSON but not as the expected entry type (here:
// a severity name the reader does not know) is also corrupt.
func TestUndecodablePayloadTreatedAsCorrupt(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("func", []byte("x"))
	if err := c.PutFunc(k, testFuncEntry()); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"func":"main","frame":null,"diags":[{"check":"x","severity":"catastrophic","func":"main","msg":"m"}]}`)
	data, err := json.Marshal(envelope{Version: version, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(k), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetFunc(k); ok {
		t.Fatal("undecodable payload served as a hit")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats = %+v, want Corrupt 1", s)
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv("WYTIWYG_CACHE", "/custom/cache")
	d, err := DefaultDir()
	if err != nil {
		t.Fatal(err)
	}
	if d != "/custom/cache" {
		t.Errorf("DefaultDir = %q, want the WYTIWYG_CACHE override", d)
	}
}
