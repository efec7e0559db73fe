// Package refcache is the content-addressed refinement cache: recovered
// stack layouts and verification findings persist across wytiwyg runs,
// keyed by a hash of everything the result depends on — the pass version,
// the traced input set, and the whole binary's machine code. Because keys
// are content hashes, invalidation is automatic: recompiling a function,
// changing the input set, or bumping the pass version changes the key and
// the stale entry is simply never found again. Entries live as one JSON file per key under a cache
// directory; a corrupted or truncated entry is indistinguishable from a
// miss (it is deleted and recomputed), so the cache can never make a run
// fail — only faster.
//
// The directory may be shared: by concurrent requests inside one daemon,
// by several processes, and by binaries built at different envelope
// format versions. Entries are written atomically (temp file + rename,
// world-readable), foreign-version entries are left in place and treated
// as plain misses, and corrupt-entry removal is quarantine-based so it
// can never delete an entry a concurrent put just renamed into place.
package refcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/layout"
)

// Key is the 256-bit content address of one cache entry.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk entry name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// NewKey hashes a domain-separation tag and the dependency parts into a
// key. Each part is length-prefixed so distinct part boundaries can never
// collide ("ab","c" vs "a","bc").
func NewKey(tag string, parts ...[]byte) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(tag), tag)
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// ProgramEntry is the cached outcome of a whole binary's refinement: the
// full recovered layout table and the sorted verification report. A hit
// lets a repeat run skip tracing, lifting and every refinement pass.
type ProgramEntry struct {
	// Frames maps function names to their recovered local objects.
	Frames map[string][]layout.Var `json:"frames"`
	// Diags is the full, sorted lint report of the original run.
	Diags []analysis.Diag `json:"diags"`
}

// Stats counts cache traffic for one Cache handle.
type Stats struct {
	Hits, Misses, Puts int // lookup and write tallies
	// Corrupt counts entries that existed but failed to decode (each was
	// removed and counted as a miss too).
	Corrupt int
	// Foreign counts entries written under a different envelope format
	// version. They are someone else's valid data — a shared cache
	// directory may serve binaries built at several format versions — so
	// each is counted as a miss and left untouched on disk.
	Foreign int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d hit(s), %d miss(es), %d new entr(ies)", s.Hits, s.Misses, s.Puts)
}

// Cache is a handle on one on-disk cache directory. All methods are safe
// for concurrent use.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats Stats

	// onCorrupt, when non-nil, runs after a corrupt entry is detected and
	// before it is quarantined — a test seam for interleaving a concurrent
	// put into the removal window.
	onCorrupt func()
}

// version is the on-disk envelope format version. It protects the JSON
// schema; semantic invalidation of results belongs in the key's pass
// version.
const version = 1

// envelope wraps every entry with the format version and the payload.
type envelope struct {
	Version int             `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("refcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path places an entry in a two-level fan-out (git-style) so directories
// stay small on big corpora.
func (c *Cache) path(k Key) string {
	name := k.String()
	return filepath.Join(c.dir, name[:2], name[2:]+".json")
}

// decodeState classifies one on-disk entry's bytes.
type decodeState int

const (
	// decodeOK: our format version and the payload decoded into out.
	decodeOK decodeState = iota
	// decodeForeign: a well-formed envelope carrying a different format
	// version — valid data belonging to another binary's cache schema.
	decodeForeign
	// decodeCorrupt: truncated, non-JSON, or a same-version payload that
	// does not decode.
	decodeCorrupt
)

// decode classifies data and, on decodeOK, fills out.
func decode(data []byte, out any) decodeState {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return decodeCorrupt
	}
	if env.Version != version {
		return decodeForeign
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return decodeCorrupt
	}
	return decodeOK
}

// get decodes the entry for k into out. Any failure — absent file,
// unreadable file, corrupt JSON, foreign format version — is a miss.
//
// Only a corrupt entry is ever removed, and never a foreign-version one:
// in a shared cache directory a foreign version means a binary with a
// different envelope schema owns the entry, and deleting it would let an
// old binary destroy a new binary's valid results (and vice versa).
//
// Removal itself must not race with a concurrent put of the same key:
// between reading garbage and unlinking the path, another process can
// rename a freshly computed valid entry into place, and a plain
// os.Remove would then delete good data. The entry is therefore removed
// by renaming it aside to a unique quarantine name first — rename is
// atomic, so the quarantined file is exactly the file that will be
// deleted — and re-checked there: if the quarantined bytes turn out
// valid (the race happened; we grabbed the new entry), it is renamed
// back into place and served as a hit. Entries are content-addressed, so
// any two valid files for the same key are interchangeable and the
// restore can never clobber better data.
func (c *Cache) get(k Key, out any) bool {
	p := c.path(k)
	data, err := os.ReadFile(p)
	if err != nil {
		c.count(func(s *Stats) { s.Misses++ })
		return false
	}
	switch decode(data, out) {
	case decodeOK:
		c.count(func(s *Stats) { s.Hits++ })
		return true
	case decodeForeign:
		c.count(func(s *Stats) { s.Misses++; s.Foreign++ })
		return false
	}
	if c.onCorrupt != nil {
		c.onCorrupt()
	}
	q := fmt.Sprintf("%s.bad-%d-%d", p, os.Getpid(), quarantineSeq.Add(1))
	if os.Rename(p, q) != nil {
		// The entry vanished or moved under us — someone else already
		// handled it; nothing of ours to clean up.
		c.count(func(s *Stats) { s.Misses++; s.Corrupt++ })
		return false
	}
	if data, err := os.ReadFile(q); err == nil {
		switch decode(data, out) {
		case decodeOK:
			// A concurrent put won the race: restore the valid entry and
			// serve it.
			os.Rename(q, p)
			c.count(func(s *Stats) { s.Hits++ })
			return true
		case decodeForeign:
			os.Rename(q, p)
			c.count(func(s *Stats) { s.Misses++; s.Foreign++ })
			return false
		}
	}
	os.Remove(q)
	c.count(func(s *Stats) { s.Misses++; s.Corrupt++ })
	return false
}

// quarantineSeq makes quarantine names unique within a process; the pid
// in the name separates processes sharing the directory.
var quarantineSeq atomic.Int64

// put stores v under k. Entries are written to a temporary file and
// renamed into place so readers never observe a half-written entry.
//
// A key that already holds an entry decoding under this format version is
// left as it is: keys are content addresses, so that entry already holds
// v, and renaming over an existing file can cost tens of milliseconds on
// a journaling filesystem where a read costs microseconds. Foreign and
// corrupt entries are replaced.
func (c *Cache) put(k Key, v any) error {
	p := c.path(k)
	if old, err := os.ReadFile(p); err == nil && decode(old, reflect.New(reflect.TypeOf(v)).Interface()) == decodeOK {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("refcache: encode: %w", err)
	}
	data, err := json.Marshal(envelope{Version: version, Payload: payload})
	if err != nil {
		return fmt.Errorf("refcache: encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("refcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "tmp-*")
	if err != nil {
		return fmt.Errorf("refcache: %w", err)
	}
	_, werr := tmp.Write(data)
	// os.CreateTemp creates the file 0600; a shared multi-user cache
	// directory needs world-readable entries, or every other user's gets
	// are misses and they recompute (and re-put) what is already there.
	merr := tmp.Chmod(0o644)
	cerr := tmp.Close()
	if werr != nil || merr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("refcache: write: %w", errors.Join(werr, merr, cerr))
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("refcache: %w", err)
	}
	c.count(func(s *Stats) { s.Puts++ })
	return nil
}

// GetProgram looks up a program-level entry.
func (c *Cache) GetProgram(k Key) (*ProgramEntry, bool) {
	var e ProgramEntry
	if !c.get(k, &e) {
		return nil, false
	}
	return &e, true
}

// PutProgram stores a program-level entry.
func (c *Cache) PutProgram(k Key, e *ProgramEntry) error { return c.put(k, e) }

// GetJSON looks up an arbitrary JSON-encodable entry (the serve daemon
// stores whole response payloads this way). The caller owns the key's
// domain tag; the same envelope versioning and corruption handling apply.
func (c *Cache) GetJSON(k Key, out any) bool { return c.get(k, out) }

// PutJSON stores an arbitrary JSON-encodable entry under k.
func (c *Cache) PutJSON(k Key, v any) error { return c.put(k, v) }

// Len counts the entries currently on disk (test and tooling helper). A
// directory that cannot be walked reports the first error alongside the
// partial count — silently swallowing it would present an undercount as
// an exact answer.
func (c *Cache) Len() (int, error) {
	n := 0
	var first error
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if first == nil {
				first = err
			}
			return nil
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if first != nil {
		return n, fmt.Errorf("refcache: walk: %w", first)
	}
	return n, nil
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// DefaultDir returns the conventional cache location: $WYTIWYG_CACHE if
// set, else the wytiwyg subdirectory of the user cache directory.
func DefaultDir() (string, error) {
	if d := os.Getenv("WYTIWYG_CACHE"); d != "" {
		return d, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("refcache: no cache directory: %w", err)
	}
	return filepath.Join(base, "wytiwyg"), nil
}

// ProgramFromLayout converts a recovered layout and report into a
// program-level entry.
func ProgramFromLayout(prog *layout.Program, rep *analysis.Report) *ProgramEntry {
	e := &ProgramEntry{Frames: make(map[string][]layout.Var, len(prog.Frames))}
	for _, name := range prog.FuncNames() {
		e.Frames[name] = append([]layout.Var(nil), prog.Frame(name).Vars...)
	}
	if rep != nil {
		e.Diags = append([]analysis.Diag(nil), rep.Diags...)
	}
	return e
}

// LayoutFromProgram reconstructs the layout table and report of a cached
// program-level entry.
func LayoutFromProgram(e *ProgramEntry) (*layout.Program, *analysis.Report) {
	prog := layout.NewProgram()
	for name, vars := range e.Frames {
		fr := &layout.Frame{Func: name, Vars: append([]layout.Var(nil), vars...)}
		fr.Sort()
		prog.Add(fr)
	}
	rep := &analysis.Report{Diags: append([]analysis.Diag(nil), e.Diags...)}
	return prog, rep
}
