package refcache

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The corrupt-removal race: a get reads garbage, and before it can remove
// the entry a concurrent put renames a freshly computed valid entry into
// place. The removal must not delete the new entry. The onCorrupt seam
// injects the put into exactly that window; the quarantine-based removal
// then discovers the valid bytes, restores them, and serves the hit.
func TestCorruptRemovalDoesNotDeleteConcurrentPut(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("program", []byte("x"))
	if err := os.MkdirAll(filepath.Dir(c.path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(k), []byte("{truncated garb"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.onCorrupt = func() {
		c.onCorrupt = nil // fire once
		if err := c.PutProgram(k, testProgramEntry()); err != nil {
			t.Errorf("racing put: %v", err)
		}
	}
	if _, ok := c.GetProgram(k); !ok {
		t.Error("get lost the race with put: valid entry not served")
	}
	// The decisive assertion: the entry the racing put installed is still
	// on disk and still valid.
	if _, ok := c.GetProgram(k); !ok {
		t.Error("racing put's entry was deleted by the corrupt-removal path")
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Errorf("stats = %+v, want Corrupt 0 (the entry was never removed)", s)
	}
	if n := quarantineFiles(t, c.dir); n != 0 {
		t.Errorf("%d quarantine file(s) left behind", n)
	}
}

// Without a racing put the quarantine path degenerates to plain removal:
// corrupt entry gone, no quarantine leftovers.
func TestCorruptRemovalLeavesNoQuarantine(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("program", []byte("x"))
	if err := c.PutProgram(k, testProgramEntry()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(k), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetProgram(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(c.path(k)); !os.IsNotExist(err) {
		t.Errorf("corrupt entry not removed: %v", err)
	}
	if n := quarantineFiles(t, c.dir); n != 0 {
		t.Errorf("%d quarantine file(s) left behind", n)
	}
}

// quarantineFiles counts leftover ".bad-*" files under dir.
func quarantineFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(filepath.Base(path), ".bad-") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Concurrent gets, puts and corruptors hammering one key must never lose
// a valid entry or serve garbage; run under -race this also proves the
// handle's internal synchronization. Corruption is injected with the same
// atomic rename discipline real writers use, so a reader observes either
// the valid entry, the garbage, or nothing — never a torn file.
func TestConcurrentGetPutStress(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("program", []byte("stress"))
	want := testProgramEntry()
	if err := c.PutProgram(k, want); err != nil {
		t.Fatal(err)
	}
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := c.PutProgram(k, want); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if e, ok := c.GetProgram(k); ok && !reflect.DeepEqual(e, want) {
					t.Errorf("get served wrong data: %+v", e)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := c.path(k)
		for i := 0; i < iters/4; i++ {
			tmp := fmt.Sprintf("%s.garb-%d", p, i)
			if err := os.WriteFile(tmp, []byte("{torn"), 0o644); err != nil {
				continue
			}
			os.Rename(tmp, p)
		}
	}()
	wg.Wait()
	// Quiesced: one final put must be durable and served.
	if err := c.PutProgram(k, want); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetProgram(k); !ok {
		t.Error("final get missed after final put — a removal deleted valid data")
	}
	if n := quarantineFiles(t, c.dir); n != 0 {
		t.Errorf("%d quarantine file(s) left behind", n)
	}
}

// Entries must land world-readable: os.CreateTemp's private 0600 mode
// would make a multi-user shared cache directory serve misses (and force
// recomputation) for every user but the writer.
func TestEntryModeWorldReadable(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("program", []byte("x"))
	if err := c.PutProgram(k, testProgramEntry()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(c.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Errorf("entry mode = %o, want 644", got)
	}
}

// Len must surface walk failures instead of presenting a partial count as
// exact.
func TestLenReportsWalkError(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutProgram(NewKey("program", []byte("a")), testProgramEntry()); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); n != 1 || err != nil {
		t.Fatalf("Len = %d, %v, want 1, nil", n, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Len(); err == nil {
		t.Error("Len on an unwalkable directory reported no error")
	}
}
