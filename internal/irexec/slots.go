package irexec

import "wytiwyg/internal/ir"

// Slots is a tracer-owned table of per-activation metadata of type E, the
// zero E meaning "absent". Each live activation owns one window: an entry
// per dense value slot (indexed by Value.Slot), followed by an entry per
// call-tuple word (indexed by Value.TupleOff plus the result index), so a
// tracer can attach metadata to a call's individual results.
//
// Windows are kept per call depth and reused by every activation at that
// depth, so steady-state execution allocates nothing, and with a
// pointer-free E the table costs the garbage collector nothing either. A
// tracer calls Enter from its FnEnter hook to give the new activation a
// cleared window; frames built outside the interpreter get one on first
// use. The zero Slots is empty and ready to use; it is not safe for
// concurrent use.
type Slots[E any] struct {
	wins [][]E // by Frame.Depth
	// last and lastWin memoize the most recent window lookup. The
	// interpreter keeps one Frame per depth, so a frame pointer names its
	// depth's window until Enter replaces it.
	last    *Frame
	lastWin []E
}

// Enter clears fr's window and returns it.
func (s *Slots[E]) Enter(fr *Frame) []E {
	for len(s.wins) <= fr.Depth {
		s.wins = append(s.wins, nil)
	}
	slots, words := fr.layout()
	w := resize(s.wins[fr.Depth], slots+words)
	clear(w)
	s.wins[fr.Depth] = w
	s.last, s.lastWin = fr, w
	return w
}

// Window returns fr's window: value slots first, then tuple words. An
// activation without a window (a frame built outside the interpreter)
// gets a cleared one.
func (s *Slots[E]) Window(fr *Frame) []E {
	if fr == s.last {
		return s.lastWin
	}
	return s.window(fr)
}

// window is Window's memo miss.
func (s *Slots[E]) window(fr *Frame) []E {
	if fr.Depth < len(s.wins) {
		if w := s.wins[fr.Depth]; len(w) > 0 {
			s.last, s.lastWin = fr, w
			return w
		}
	}
	return s.Enter(fr)
}

// Tuple returns the entries of call's result words in fr, or nil when the
// value produces no tuple.
func (s *Slots[E]) Tuple(fr *Frame, call *ir.Value) []E {
	n, off := call.TupleWidth(), call.TupleOff()
	if n == 0 || off < 0 {
		return nil
	}
	slots, _ := fr.layout()
	return s.Window(fr)[slots+off : slots+off+n]
}
