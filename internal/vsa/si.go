package vsa

import "fmt"

// SI is a strided interval: the set {Lo + k·Stride | k ≥ 0} ∩ [Lo, Hi].
// Stride 0 means the singleton {Lo} (then Lo == Hi). The congruence is
// anchored at Lo, so a trustworthy stride requires a finite Lo. After
// norm, every set is either Top (both bounds at the analysis infinities)
// or lies entirely inside the 32-bit value window [−2^31, 2^32): a
// computation that leaves the window wraps, and norm replaces it with the
// full congruence class it can still claim (see norm).
type SI struct {
	Lo, Hi, Stride int64 // inclusive bounds and step of the represented set
}

// The analysis infinities: a bound at or beyond one is unbounded. They are
// kept far inside the int64 range so endpoint arithmetic (Lo+Lo, Hi+Hi)
// cannot overflow.
const (
	negInf int64 = -(1 << 40)
	posInf int64 = 1 << 40
)

// TopSI is the unconstrained strided interval.
var TopSI = SI{Lo: negInf, Hi: posInf, Stride: 1}

// ConstSI returns the singleton {c}.
func ConstSI(c int64) SI { return SI{Lo: c, Hi: c} }

// SpanSI returns the strided interval [lo, hi] with the given stride,
// normalized.
func SpanSI(lo, hi, stride int64) SI {
	return SI{Lo: lo, Hi: hi, Stride: stride}.norm()
}

// IsTop reports whether the set is unconstrained.
func (s SI) IsTop() bool { return s.Lo <= negInf && s.Hi >= posInf }

// Exact returns the single element of a singleton set.
func (s SI) Exact() (int64, bool) {
	if s.Lo == s.Hi {
		return s.Lo, true
	}
	return 0, false
}

func (s SI) String() string {
	if s.IsTop() {
		return "T"
	}
	lo, hi := "-inf", "+inf"
	if s.Lo > negInf {
		lo = fmt.Sprint(s.Lo)
	}
	if s.Hi < posInf {
		hi = fmt.Sprint(s.Hi)
	}
	if s.Stride > 1 {
		return fmt.Sprintf("%d[%s,%s]", s.Stride, lo, hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

// norm restores the representation invariants: Lo ≤ Hi, singletons have
// stride 0, a positive stride divides Hi−Lo, and the set lies inside the
// 32-bit value window [−2^31, 2^32). A bound beyond the window (or at an
// infinity) means the computation wrapped, and the set falls to wrap().
func (s SI) norm() SI {
	s.Lo, s.Hi = clamp(s.Lo), clamp(s.Hi)
	if s.Lo > s.Hi {
		// Callers never construct empty sets; treat as the singleton Lo.
		s.Hi = s.Lo
	}
	if s.Lo < -(1<<31) || s.Hi >= 1<<32 {
		return s.wrap()
	}
	if s.Lo == s.Hi {
		s.Stride = 0
		return s
	}
	if s.Stride <= 0 {
		s.Stride = 1
	}
	s.Hi = s.Lo + (s.Hi-s.Lo)/s.Stride*s.Stride
	return s
}

// wrap maps a set that left the 32-bit value window onto the full
// congruence class of its anchor modulo gcd(Stride, 2^32), spanning the
// unsigned window [0, 2^32). Runtime arithmetic wraps at 2^32, so the
// concrete words re-enter low memory and only residues modulo divisors
// of 2^32 survive; keeping an in-window bound would claim the wrapped
// values stop there, which is unsound — a half-open ray never survives
// norm (a plain interval would have to go to Top here; the congruence
// class is the strided refinement of that).
// With no exact bound left there is no anchor and the result is Top.
func (s SI) wrap() SI {
	a, ok := s.anchor()
	if !ok {
		return TopSI
	}
	st := s.Stride
	if s.Lo == s.Hi {
		st = 1 << 32 // a wrapped singleton is still exactly one word
	} else if st <= 0 {
		st = 1
	}
	g := gcd(st, 1<<32)
	r := mod(a, g)
	hi := r + (1<<32-1-r)/g*g
	if r == hi {
		return SI{Lo: r, Hi: r}
	}
	return SI{Lo: r, Hi: hi, Stride: g}
}

// anchor returns an exact element the congruence is anchored at (elements
// are ≡ anchor mod Stride): Lo when exact, else Hi. A bound at either
// analysis infinity is a saturation sentinel, not an element; sets with
// no exact bound have no anchor and report false.
func (s SI) anchor() (int64, bool) {
	if s.Lo > negInf && s.Lo < posInf {
		return s.Lo, true
	}
	if s.Hi < posInf && s.Hi > negInf {
		return s.Hi, true
	}
	return 0, false
}

func clamp(x int64) int64 {
	if x < negInf {
		return negInf
	}
	if x > posInf {
		return posInf
	}
	return x
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mod is the non-negative remainder of x mod m (m > 0).
func mod(x, m int64) int64 {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// Join is the lattice join: the smallest strided interval containing both
// sets. The joined stride is the gcd of both strides and of the anchor
// distance, preserving congruence when the operands agree on it.
func (s SI) Join(o SI) SI {
	stride := gcd(s.Stride, o.Stride)
	if sa, ok := s.anchor(); ok {
		if oa, ok := o.anchor(); ok {
			stride = gcd(stride, oa-sa)
		}
	}
	lo, hi := s.Lo, s.Hi
	if o.Lo < lo {
		lo = o.Lo
	}
	if o.Hi > hi {
		hi = o.Hi
	}
	return SI{Lo: lo, Hi: hi, Stride: stride}.norm()
}

// WidenFrom jumps any endpoint that grew since prev out of the value
// window, which norm resolves to the anchor's full congruence class:
// congruence is stable under loop iteration even when bounds are not,
// and it is what separates interleaved field streams.
func (s SI) WidenFrom(prev SI) SI {
	if s.Lo < prev.Lo {
		s.Lo = negInf
	}
	if s.Hi > prev.Hi {
		s.Hi = posInf
	}
	return s.norm()
}

// addOvf adds endpoints, saturating at the infinities.
func addOvf(a, b int64) int64 {
	if a <= negInf || b <= negInf {
		return negInf
	}
	if a >= posInf || b >= posInf {
		return posInf
	}
	return clamp(a + b)
}

// Add is set addition {x+y}; the result stride is the gcd of the operand
// strides (both congruences survive addition).
func (s SI) Add(o SI) SI {
	return SI{
		Lo:     addOvf(s.Lo, o.Lo),
		Hi:     addOvf(s.Hi, o.Hi),
		Stride: gcd(s.Stride, o.Stride),
	}.norm()
}

// Sub is set subtraction {x−y}.
func (s SI) Sub(o SI) SI {
	return SI{
		Lo:     addOvf(s.Lo, -o.Hi),
		Hi:     addOvf(s.Hi, -o.Lo),
		Stride: gcd(s.Stride, o.Stride),
	}.norm()
}

// Neg is set negation {−x}.
func (s SI) Neg() SI {
	return SI{Lo: addOvf(0, -s.Hi), Hi: addOvf(0, -s.Lo), Stride: s.Stride}.norm()
}

// MulConst is set scaling {k·x}: the stride scales with the elements.
func (s SI) MulConst(k int64) SI {
	if k == 0 {
		return ConstSI(0)
	}
	if s.IsTop() {
		return TopSI
	}
	lo, ovf1 := mulOvf(s.Lo, k)
	hi, ovf2 := mulOvf(s.Hi, k)
	st, ovf3 := mulOvf(s.Stride, k)
	if ovf1 || ovf2 || ovf3 || s.Lo <= negInf || s.Hi >= posInf {
		return TopSI
	}
	if k < 0 {
		lo, hi = hi, lo
	}
	if st < 0 {
		st = -st
	}
	return SI{Lo: lo, Hi: hi, Stride: st}.norm()
}

// mulOvf multiplies, reporting int64 overflow.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	r := a * b
	if r/b != a {
		return 0, true
	}
	return r, false
}

// Contains reports whether the set may contain the 32-bit word x
// denotes. Both window readings of the word are checked: a wrapped set
// spans the unsigned window, so the word written −16 lives there as
// 2^32−16.
func (s SI) Contains(x int64) bool {
	if s.contains(x) {
		return true
	}
	if x < 0 {
		return s.contains(x + 1<<32)
	}
	if x >= 1<<31 {
		return s.contains(x - 1<<32)
	}
	return false
}

func (s SI) contains(x int64) bool {
	if x < s.Lo || x > s.Hi {
		return false
	}
	if s.Stride <= 1 {
		return true
	}
	a, ok := s.anchor()
	if !ok {
		return true
	}
	return mod(x-a, s.Stride) == 0
}

// DisjointAccess reports whether every szA-byte access at an address in s
// is byte-disjoint from every szB-byte access at an address in o, under
// 32-bit wrapping address arithmetic. Two separations are tried: interval
// separation (the byte ranges cannot meet) and congruence separation
// (both sets lie on a lattice of modulus g, and the residue gap between
// them fits both access widths). Residues only survive the 2^32 wrap when
// g divides 2^32, so 2^32 is folded into the gcd — which also makes the
// singleton/singleton case an exact wrap-aware distance test.
func (s SI) DisjointAccess(szA int64, o SI, szB int64) bool {
	if szA <= 0 || szB <= 0 {
		return false
	}
	// A signed-negative element and an unsigned-high element of the 32-bit
	// window can denote the same concrete address (x and x+2^32); refuse
	// to separate such pairs.
	if (s.Lo < 0 && o.Hi+szB > 1<<31) || (o.Lo < 0 && s.Hi+szA > 1<<31) {
		return false
	}
	if s.Hi < posInf && s.Hi+szA <= o.Lo {
		return true
	}
	if o.Hi < posInf && o.Hi+szB <= s.Lo {
		return true
	}
	sa, okA := s.anchor()
	oa, okB := o.anchor()
	if !okA || !okB {
		return false
	}
	g := gcd(gcd(s.Stride, o.Stride), 1<<32)
	d := mod(oa-sa, g)
	return d >= szA && g-d >= szB
}

// unbounded reports whether the offset set escapes the signed 32-bit
// range — an infinity, or a wrapped congruence class spanning the
// unsigned window — in which case base+offset arithmetic on its bounds
// says nothing about where the access lands in the frame.
func (s SI) unbounded() bool {
	return s.Lo < -(1<<31) || s.Hi >= 1<<31
}
