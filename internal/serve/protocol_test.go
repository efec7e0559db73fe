package serve

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// FuzzJobDigest checks that Normalize is idempotent on any job it
// accepts: a second Normalize must succeed and leave the job, and so its
// Digest, unchanged. Inputs arrive as little-endian int32s.
func FuzzJobDigest(f *testing.F) {
	f.Add("", "mcf", "", "", "", false, false, false, []byte{})
	f.Add(KindLift, "astar", "", "gcc44-O3", "off", true, false, false, []byte{5, 0, 0, 0}) // "off" is no mode
	f.Add(KindLint, "", "int main() { return 0; }", "clang16-O3", "fail", true, true, true,
		[]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(KindRecompile, "", inlineSrc, "gcc12-O0", "warn", false, true, false, []byte{5, 0, 0, 0})
	f.Add("bogus", "mcf", "int main() { return 0; }", "gcc3", "loud", false, false, true, []byte{7})
	f.Fuzz(func(t *testing.T, kind, bench, source, profile, lint string, vsa, types, static bool, raw []byte) {
		j := Job{Kind: kind, Bench: bench, Source: source, Profile: profile, Lint: lint,
			VSA: vsa, Types: types, StaticRecover: static}
		for ; len(raw) >= 4; raw = raw[4:] {
			j.Inputs = append(j.Inputs, int32(binary.LittleEndian.Uint32(raw)))
		}
		if j.Normalize() != nil {
			return
		}
		once := j
		once.Inputs = slices.Clone(j.Inputs)
		digest := j.Digest()
		if err := j.Normalize(); err != nil {
			t.Fatalf("second Normalize rejected the normalized job %+v: %v", once, err)
		}
		if !reflect.DeepEqual(j, once) {
			t.Errorf("second Normalize changed the job:\n got %+v\nwant %+v", j, once)
		}
		if d := j.Digest(); d != digest {
			t.Errorf("Digest moved from %s to %s across a second Normalize", digest, d)
		}
	})
}
