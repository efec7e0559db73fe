package irexec

import "wytiwyg/internal/ir"

// Observer is implemented by a tracer whose Exec and Phi hooks act on only
// some of a function's instructions and phi moves. A Program built with an
// Observer asks it once per function, when it compiles the function, and
// calls Exec and Phi only where the returned Filter says so; FnEnter,
// FnExit and CallPre always fire.
//
// A Filter must be sound for every tracer the Program's interpreters run:
// a hook it skips must be one that would have changed nothing. The usual
// argument is a may-hold fixpoint over the function's SSA form: a skipped
// hook would read only zero metadata and write zero into a slot that is
// always zero.
type Observer interface {
	// Observes returns f's filter. It runs under the Program's compile
	// lock, with f's layout current, and must not change f.
	Observes(f *ir.Func) Filter
}

// Filter is one function's static observation filter.
type Filter interface {
	// Exec reports whether the Exec hook can act on instruction v.
	Exec(v *ir.Value) bool
	// Phi reports whether the Phi hook can act on moving in into phi.
	Phi(phi, in *ir.Value) bool
}

// Union returns an Observer that observes what any of obs observes, for
// a tracer that forwards its hooks to several.
func Union(obs ...Observer) Observer { return union(obs) }

type union []Observer

// unionFilter is the Filter of a union: one filter per member.
type unionFilter []Filter

func (u union) Observes(f *ir.Func) Filter {
	fs := make(unionFilter, len(u))
	for i, o := range u {
		fs[i] = o.Observes(f)
	}
	return fs
}

func (fs unionFilter) Exec(v *ir.Value) bool {
	for _, f := range fs {
		if f.Exec(v) {
			return true
		}
	}
	return false
}

func (fs unionFilter) Phi(phi, in *ir.Value) bool {
	for _, f := range fs {
		if f.Phi(phi, in) {
			return true
		}
	}
	return false
}

// SlotSet is a set of one function's values, a bool per dense value slot
// (Value.Slot): the table a Filter's fixpoint fills. Values without a slot
// in the function's current layout are never members.
type SlotSet []bool

// NewSlotSet returns an empty set sized for f's current layout.
func NewSlotSet(f *ir.Func) SlotSet { return make(SlotSet, f.Layout().NumSlots) }

// Has reports whether v is in the set.
func (s SlotSet) Has(v *ir.Value) bool {
	i := v.Slot()
	return uint(i) < uint(len(s)) && s[i]
}

// Add puts v in the set and reports whether it was missing. A value
// without a slot is left out.
func (s SlotSet) Add(v *ir.Value) bool {
	i := v.Slot()
	if uint(i) >= uint(len(s)) || s[i] {
		return false
	}
	s[i] = true
	return true
}
