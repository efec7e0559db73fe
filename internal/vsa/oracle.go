package vsa

import "wytiwyg/internal/ir"

// Oracle answers alias queries about one function from its VSA fixpoint.
// Every answer is conservative: a query over values the analysis lost
// track of (or values from another function) never separates.
type Oracle struct {
	fr *FuncResult
}

// Oracle wraps the fixpoint in its query interface.
func (fr *FuncResult) Oracle() *Oracle { return &Oracle{fr: fr} }

// NewOracle analyzes f and returns its alias oracle.
func NewOracle(f *ir.Func) *Oracle { return Analyze(f).Oracle() }

// Result returns the underlying fixpoint.
func (o *Oracle) Result() *FuncResult { return o.fr }

// MustNotAlias reports whether a szA-byte access at address a is proven
// byte-disjoint from a szB-byte access at address b. false means "cannot
// prove", not "they alias".
func (o *Oracle) MustNotAlias(a *ir.Value, szA int64, b *ir.Value, szB int64) bool {
	if a == b {
		return false
	}
	return o.fr.ValueSetOf(a).DisjointAccess(szA, o.fr.ValueSetOf(b), szB)
}

// Stride is the proven shape of one frame address set, phrased in the
// facts clients (typerec's array/field inference) consume directly so
// they never re-derive them from raw SIs: every offset the address can
// take, relative to Base's start, is ≡ Phase (mod Step).
type Stride struct {
	// Base is the stack object every address stays inside.
	Base *ir.Value
	// Step is the congruence modulus between offsets; 0 means the single
	// exact offset Phase.
	Step int64
	// Phase is the offset residue: offsets ≡ Phase (mod Step) when
	// Step > 0, and the exact offset when Step == 0.
	Phase int64
	// Lo and Hi bound the offsets inclusively when Bounded is true.
	Lo, Hi int64
	// Bounded reports whether Lo and Hi are trustworthy. A wrapped or
	// saturated set has no usable extent and reports false — its
	// congruence is still exact (stride survives widening; bounds do
	// not).
	Bounded bool
}

// StrideOf reports the proven (stride, extent) shape of a frame access
// address: p must stay within exactly one stack object and its offset
// set must keep at least a congruence anchor. false means "cannot
// prove" — multi-region pointers and Top offset sets never qualify.
func (o *Oracle) StrideOf(p *ir.Value) (Stride, bool) {
	base, offs, ok := o.fr.ValueSetOf(p).FramePart()
	if !ok {
		return Stride{}, false
	}
	st, ok := StrideFacts(offs)
	if !ok {
		return Stride{}, false
	}
	st.Base = base
	return st, true
}

// StrideFacts reduces one strided offset set to the Stride facts (sans
// base object). Saturated sets with no exact bound — Top, or an interval
// that lost both anchors — report false; a wrapped congruence class
// keeps its exact Step/Phase but reports Bounded false.
func StrideFacts(s SI) (Stride, bool) {
	a, ok := s.anchor()
	if !ok {
		return Stride{}, false
	}
	var st Stride
	if s.Stride > 0 {
		st.Step = s.Stride
		st.Phase = mod(a, st.Step)
	} else {
		st.Phase = a
	}
	if !s.unbounded() {
		st.Bounded, st.Lo, st.Hi = true, s.Lo, s.Hi
	}
	return st, true
}
