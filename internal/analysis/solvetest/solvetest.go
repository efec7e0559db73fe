// Package solvetest checks that a dataflow problem is safe to solve with
// the engine's state recycling (analysis.Solve hands discarded states back
// to Problem.Copy as destinations). It is test support shared by the
// packages that define problems.
package solvetest

import (
	"fmt"
	"reflect"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
)

// Check solves p over f twice, once as given and once with a Copy that
// always allocates (so no state storage is ever reused), and reports the
// first difference between the two fixpoints. It also reports any two
// states of the recycled fixpoint that share a backing array or map:
// consumers may mutate (replay into) the states they read.
func Check[S any](f *ir.Func, p analysis.Problem[S]) error {
	got := analysis.Solve(f, p)
	fresh := p
	fresh.Copy = func(_, src S) S {
		var zero S
		return p.Copy(zero, src)
	}
	want := analysis.Solve(f, fresh)
	if len(got) != len(want) {
		return fmt.Errorf("%s: recycled fixpoint covers %d blocks, fresh %d", f.Name, len(got), len(want))
	}
	owner := make(map[uintptr]string)
	for _, b := range f.Blocks {
		g, ok := got[b]
		if !ok {
			continue
		}
		if !reflect.DeepEqual(g, want[b]) {
			return fmt.Errorf("%s: block %d state differs:\nrecycled %+v\nfresh    %+v",
				f.Name, b.ID, g, want[b])
		}
		at := fmt.Sprintf("block %d", b.ID)
		for _, ptr := range storage(reflect.ValueOf(g)) {
			if prev, dup := owner[ptr]; dup {
				return fmt.Errorf("%s: %s state shares storage with %s", f.Name, at, prev)
			}
			owner[ptr] = at
		}
	}
	return nil
}

// storage lists the backing arrays and maps a state owns: its own slices
// and maps, and those of its struct fields, but not what their elements
// point to (element values, like immutable value sets, may be shared).
func storage(v reflect.Value) []uintptr {
	switch v.Kind() {
	case reflect.Slice:
		if v.Cap() == 0 {
			return nil
		}
		return []uintptr{v.Pointer()}
	case reflect.Map:
		if v.IsNil() {
			return nil
		}
		return []uintptr{v.Pointer()}
	case reflect.Struct:
		var out []uintptr
		for i := 0; i < v.NumField(); i++ {
			out = append(out, storage(v.Field(i))...)
		}
		return out
	}
	return nil
}
