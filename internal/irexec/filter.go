package irexec

import "wytiwyg/internal/ir"

// Action is what a tracer does at one site: a small code the tracer
// defines, fixed when the function is compiled. The interpreter calls
// Act at every site whose action is not Skip and passes the code along
// in the Site; the tracer switches on it.
type Action uint8

const (
	// Skip fires nothing: the tracer does not observe the site.
	Skip Action = 0
	// Generic is the action of every site of a Program built without an
	// Observer. A tracer that receives it works out what to do from
	// Site.V, as its Observer would have at compile time.
	Generic Action = 0xFF
)

// Site is one instruction or phi move as the tracer sees it, with its
// operands resolved when the function is compiled: the action, the
// value slots (Value.Slot) the tracer's Slots tables are indexed by,
// the access width and the action's immediate. A tracer acting on a
// site reads no *ir.Value; V is there for Generic actions, for messages
// and for rare actions that need more than two operands.
type Site struct {
	Act  Action // the tracer's action; Generic without an Observer
	Size uint8  // a load's or store's access width
	// A and B are the slots of the first two operands (a phi move's A is
	// its incoming value's), -1 where the operand is missing. Dst is the
	// result's slot (a phi move's: the phi's).
	A, B, Dst int32
	Imm       uint32    // the action's immediate, as the Observer set it
	V         *ir.Value // the instruction, or a phi move's phi
}

// SiteOf returns instruction v's site under its function's current
// layout, with the Generic action.
func SiteOf(v *ir.Value) Site {
	s := Site{Act: Generic, Size: v.Size, A: -1, B: -1, Dst: int32(v.Slot()), V: v}
	if len(v.Args) > 0 {
		s.A = slotOf(v.Args[0])
	}
	if len(v.Args) > 1 {
		s.B = slotOf(v.Args[1])
	}
	return s
}

// PhiSite returns the site of moving in into phi, with the Generic
// action.
func PhiSite(phi, in *ir.Value) Site {
	return Site{Act: Generic, A: slotOf(in), B: -1, Dst: int32(phi.Slot()), V: phi}
}

func slotOf(v *ir.Value) int32 {
	if v == nil {
		return -1
	}
	return int32(v.Slot())
}

// Observer is implemented by a tracer that acts on only some of a
// function's instructions and phi moves, and knows what it will do at
// each before the function runs. A Program built with an Observer asks
// it once per function, when it compiles the function, and stores the
// returned actions in the compiled sites; Act fires only at sites whose
// action is not Skip. FnEnter and FnExit always fire.
//
// Skip must be sound for every tracer the Program's interpreters run: a
// skipped site must be one where acting would have changed nothing. The
// usual argument is a may-hold fixpoint over the function's SSA form: a
// skipped site would read only zero metadata and write zero into a slot
// that is always zero. An action that is not Skip must do what the
// tracer does with Generic at that site.
type Observer interface {
	// Observes returns f's actions. It runs under the Program's compile
	// lock, with f's layout current, and must not change f.
	Observes(f *ir.Func) Actions
}

// Actions is one function's compiled actions.
type Actions interface {
	// Exec returns the action on instruction v and its immediate.
	Exec(v *ir.Value) (Action, uint32)
	// Phi returns the action on moving in into phi and its immediate.
	Phi(phi, in *ir.Value) (Action, uint32)
}

// SlotSet is a set of one function's values, a bool per dense value slot
// (Value.Slot): the table an Observer's fixpoint fills. Values without a
// slot in the function's current layout are never members.
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
