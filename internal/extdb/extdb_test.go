package extdb_test

import (
	"testing"

	"wytiwyg/internal/extdb"
)

func TestVariadicSignatures(t *testing.T) {
	for _, name := range []string{"printf", "sprintf"} {
		sig, ok := extdb.Lookup(name)
		if !ok || !sig.Variadic {
			t.Errorf("%s must be variadic", name)
		}
		hasFmt := false
		for _, e := range sig.Effects {
			if e.Kind == extdb.FormatStr {
				hasFmt = true
			}
		}
		if !hasFmt {
			t.Errorf("%s lacks a FormatStr effect", name)
		}
	}
	if sig, _ := extdb.Lookup("memcpy"); sig.Variadic {
		t.Error("memcpy must not be variadic")
	}
}

func TestEffectShapes(t *testing.T) {
	sig, _ := extdb.Lookup("memcpy")
	var hasCopy, hasSize bool
	for _, e := range sig.Effects {
		switch e.Kind {
		case extdb.Copy:
			hasCopy = true
			if e.A != 0 || e.B != 1 || e.C != 2 {
				t.Errorf("memcpy Copy wired wrong: %+v", e)
			}
		case extdb.ObjectSize:
			hasSize = true
		}
	}
	if !hasCopy || !hasSize {
		t.Errorf("memcpy effects incomplete: %+v", sig.Effects)
	}
	sig, _ = extdb.Lookup("strtok")
	found := false
	for _, e := range sig.Effects {
		if e.Kind == extdb.DeriveRet && e.A == 0 {
			found = true
		}
	}
	if !found {
		t.Error("strtok must derive its return value from argument 0")
	}
	if _, ok := extdb.Lookup("no_such_function"); ok {
		t.Error("ghost function found")
	}
}
