package analysis

import (
	"math/bits"

	"wytiwyg/internal/ir"
)

// Env is a dataflow environment: one abstract value per SSA value of a
// function, stored densely by Value.Slot() with a presence bit per slot.
// A missing entry is the analysis's optimistic bottom (the value has not
// been evaluated on any path yet). A present entry that holds the
// lattice's bottom element is a different state: phi rules skip missing
// operands but join present ones, and a join that adds a new entry counts
// as a change on the widening clock even when the entry is bottom.
//
// Slots are only meaningful under one layout, so an analysis sizes its
// environments with NewEnv after calling f.EnsureLayout, and no Env
// outlives the analysis call that built it. Values without a slot in that
// layout (slot −1 or out of range) are always missing.
type Env[T any] struct {
	vals []T      // entry per slot; the zero T where the slot is missing
	has  []uint64 // presence bitmap, one bit per slot
}

// NewEnv returns an empty environment for a function whose layout has n
// slots.
func NewEnv[T any](n int) Env[T] {
	return Env[T]{vals: make([]T, n), has: make([]uint64, (n+63)/64)}
}

// Get returns v's entry and whether it is present.
func (e Env[T]) Get(v *ir.Value) (T, bool) {
	i := v.Slot()
	if uint(i) >= uint(len(e.vals)) || e.has[i>>6]&(1<<(uint(i)&63)) == 0 {
		var zero T
		return zero, false
	}
	return e.vals[i], true
}

// Set records x as v's entry. v must have a slot in the environment's
// layout.
func (e Env[T]) Set(v *ir.Value, x T) {
	i := v.Slot()
	e.vals[i] = x
	e.has[i>>6] |= 1 << (uint(i) & 63)
}

// Clone returns an independent copy of e.
func (e Env[T]) Clone() Env[T] {
	out := Env[T]{vals: make([]T, len(e.vals)), has: make([]uint64, len(e.has))}
	copy(out.vals, e.vals)
	copy(out.has, e.has)
	return out
}

// CopyFrom makes e an independent copy of src and returns it, reusing e's
// storage when it has room (a zero Env allocates).
func (e Env[T]) CopyFrom(src Env[T]) Env[T] {
	if cap(e.vals) < len(src.vals) || cap(e.has) < len(src.has) {
		return src.Clone()
	}
	e.vals, e.has = e.vals[:len(src.vals)], e.has[:len(src.has)]
	copy(e.vals, src.vals)
	copy(e.has, src.has)
	return e
}

// JoinFrom merges src into e entry by entry and reports whether e changed:
// an entry missing from e takes src's entry (a change), and entries
// present on both sides become join(e's, src's), a change when join
// reports one. Entries missing from src leave e untouched.
func (e Env[T]) JoinFrom(src Env[T], join func(dst, src T) (T, bool)) bool {
	changed := false
	for w, word := range src.has {
		mine := e.has[w]
		for word != 0 {
			bit := word & -word
			i := w<<6 | bits.TrailingZeros64(word)
			word &^= bit
			if mine&bit == 0 {
				e.vals[i] = src.vals[i]
				changed = true
				continue
			}
			if nv, grew := join(e.vals[i], src.vals[i]); grew {
				e.vals[i] = nv
				changed = true
			}
		}
		e.has[w] = mine | src.has[w]
	}
	return changed
}

// WidenFrom replaces every entry of e that prev also holds with
// widen(prev's, e's).
func (e Env[T]) WidenFrom(prev Env[T], widen func(prev, next T) T) {
	for w, word := range e.has {
		word &= prev.has[w]
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			e.vals[i] = widen(prev.vals[i], e.vals[i])
		}
	}
}
