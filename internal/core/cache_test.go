package core_test

import (
	"reflect"
	"testing"

	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/refcache"
)

// ProgramKey is the one place that decides which options are part of the
// program cache key. Every option that changes the recorded layout or
// report must move the key; the scheduling and plumbing options, and VSA
// (whose verification the lint runs on every pipeline), must not.
// The table must list every Options field, so a new option cannot miss
// the key by accident.
func TestProgramKeyOptions(t *testing.T) {
	img, err := gen.Build(pipelineSrc, gen.GCC12O3, "gcd")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []machine.Input{{Ints: []int32{54, 24}}}
	table := map[string]struct {
		set   func(*core.Options)
		keyed bool
	}{
		"Lint":          {func(o *core.Options) { o.Lint = core.LintFail }, true},
		"VSA":           {func(o *core.Options) { o.VSA = true }, false},
		"Types":         {func(o *core.Options) { o.Types = true }, true},
		"StaticRecover": {func(o *core.Options) { o.StaticRecover = true }, true},
		"Jobs":          {func(o *core.Options) { o.Jobs = 8 }, false},
		"Cache":         {func(o *core.Options) { o.Cache = cache }, false},
		"Observer":      {func(o *core.Options) { o.Observer = func(core.StageEvent) {} }, false},
	}
	base := core.Options{}
	baseKey := core.ProgramKey(img, inputs, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		row, ok := table[name]
		if !ok {
			t.Errorf("Options.%s is not in the table: decide whether it belongs in ProgramKey", name)
			continue
		}
		opts := base
		row.set(&opts)
		if changed := core.ProgramKey(img, inputs, opts) != baseKey; changed != row.keyed {
			t.Errorf("Options.%s: key changed = %v, want %v", name, changed, row.keyed)
		}
	}
	if len(table) != typ.NumField() {
		t.Errorf("table lists %d options, Options has %d fields", len(table), typ.NumField())
	}
}

// A second Refine of the same program on the same cache finds its program
// entry already in place and writes nothing.
func TestRefineTwiceAddsNoPut(t *testing.T) {
	img, err := gen.Build(pipelineSrc, gen.GCC12O3, "gcd")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []machine.Input{{Ints: []int32{54, 24}}}
	opts := core.Options{Lint: core.LintWarn, Cache: cache}
	for run := 1; run <= 2; run++ {
		p, err := core.LiftBinaryOpts(img, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Refine(); err != nil {
			t.Fatal(err)
		}
		if s := cache.Stats(); s.Puts != 1 {
			t.Errorf("after run %d: stats = %+v, want Puts 1", run, s)
		}
	}
}
