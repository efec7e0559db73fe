package vsa

import (
	"fmt"
	"sort"
	"strings"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// RegionKind classifies the memory regions of the abstract address space.
type RegionKind uint8

// Region kinds. Num holds plain numbers and absolute addresses (globals,
// code, emulated stack); Frame is one symbolized stack object (a distinct
// region per alloca, so offsets are alloca-relative); Heap summarizes the
// bump-allocated heap.
const (
	RegNum RegionKind = iota
	RegFrame
	RegHeap
)

// Region identifies one memory region. For RegFrame, Base is the alloca
// whose storage the region denotes; it is nil otherwise.
type Region struct {
	Kind RegionKind // which region class
	Base *ir.Value  // the identifying alloca for RegFrame
}

func (r Region) String() string {
	switch r.Kind {
	case RegFrame:
		if r.Base.Name != "" {
			return "frame:" + r.Base.Name
		}
		return fmt.Sprintf("frame:%s", r.Base)
	case RegHeap:
		return "heap"
	}
	return "num"
}

// NumRegion is the numeric/global region.
var NumRegion = Region{Kind: RegNum}

// HeapRegion is the heap summary region.
var HeapRegion = Region{Kind: RegHeap}

// cmpRegion orders regions canonically: by kind (num, frame, heap), then
// frame regions by their alloca's Value.ID.
func cmpRegion(a, b Region) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	if a.Kind != RegFrame || a.Base == b.Base {
		return 0
	}
	if a.Base.ID < b.Base.ID {
		return -1
	}
	return 1
}

// part is one region's component of a value set.
type part struct {
	r Region
	s SI
}

// ValueSet is the abstract value of one SSA value or memory cell: per
// region, a strided interval of offsets (absolute values for RegNum,
// object-relative offsets for RegFrame, allocation-relative offsets for
// RegHeap). The zero ValueSet is bottom (the empty set); Top is the
// distinguished unconstrained element.
//
// A ValueSet is immutable: its parts are kept in canonical region order
// (cmpRegion) and never written once built, so sets share backing arrays
// freely, and operations that change nothing return their receiver.
type ValueSet struct {
	top   bool
	parts []part
}

// TopVS is the unconstrained value set.
var TopVS = ValueSet{top: true}

// BottomVS is the empty value set (the lattice bottom).
var BottomVS = ValueSet{}

// single returns the value set with the one part (r, s).
func single(r Region, s SI) ValueSet { return ValueSet{parts: []part{{r, s}}} }

// NumVS returns a value set holding the numeric strided interval s.
func NumVS(s SI) ValueSet { return single(NumRegion, s) }

// ConstVS returns the singleton numeric value set {c}.
func ConstVS(c int64) ValueSet { return NumVS(ConstSI(c)) }

// FrameVS returns the value set pointing at offset set s within alloca a.
func FrameVS(a *ir.Value, s SI) ValueSet { return single(Region{Kind: RegFrame, Base: a}, s) }

// HeapVS returns the value set pointing into the heap summary at offsets s.
func HeapVS(s SI) ValueSet { return single(HeapRegion, s) }

// IsTop reports whether the set is unconstrained.
func (v ValueSet) IsTop() bool { return v.top }

// IsBottom reports whether the set is empty.
func (v ValueSet) IsBottom() bool { return !v.top && len(v.parts) == 0 }

// Part returns the strided interval of region r and whether it is present.
func (v ValueSet) Part(r Region) (SI, bool) {
	for _, p := range v.parts {
		if p.r == r {
			return p.s, true
		}
	}
	return SI{}, false
}

// only returns the set's sole part when it has exactly one, of kind k.
func (v ValueSet) only(k RegionKind) (part, bool) {
	if v.top || len(v.parts) != 1 || v.parts[0].r.Kind != k {
		return part{}, false
	}
	return v.parts[0], true
}

// NumPart returns the numeric component, or false if the set may hold
// non-numeric (pointer) values or is unbounded.
func (v ValueSet) NumPart() (SI, bool) {
	p, ok := v.only(RegNum)
	return p.s, ok
}

// HeapPart returns the offset set into the heap summary, if the set
// points into the heap and nothing else.
func (v ValueSet) HeapPart() (SI, bool) {
	p, ok := v.only(RegHeap)
	return p.s, ok
}

// HasPointerPart reports whether the set includes a frame or heap
// region — positive evidence that the value is (at least sometimes) a
// pointer. Top reports false: an unconstrained value carries no
// evidence either way.
func (v ValueSet) HasPointerPart() bool {
	for _, p := range v.parts {
		if p.r.Kind != RegNum {
			return true
		}
	}
	return false
}

// FramePart returns the single frame region and offsets, if the set points
// into exactly one stack object and nothing else.
func (v ValueSet) FramePart() (*ir.Value, SI, bool) {
	p, ok := v.only(RegFrame)
	return p.r.Base, p.s, ok
}

// String renders the parts sorted by their regions' printed names.
func (v ValueSet) String() string {
	if v.top {
		return "T"
	}
	if len(v.parts) == 0 {
		return "_|_"
	}
	parts := append([]part(nil), v.parts...)
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].r.String() < parts[j].r.String() })
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%s%s", p.r, p.s)
	}
	return sb.String()
}

// sameParts reports whether both sets share one backing array.
func sameParts(a, b []part) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Eq reports semantic equality.
func (v ValueSet) Eq(o ValueSet) bool {
	if v.top != o.top || len(v.parts) != len(o.parts) {
		return false
	}
	if sameParts(v.parts, o.parts) {
		return true
	}
	for i, p := range v.parts {
		if o.parts[i] != p {
			return false
		}
	}
	return true
}

// Join is the lattice join (set union, region-wise). When o adds nothing
// to v, v itself is returned and nothing is allocated.
func (v ValueSet) Join(o ValueSet) ValueSet {
	if v.top || o.top {
		return TopVS
	}
	if len(o.parts) == 0 || sameParts(v.parts, o.parts) {
		return v
	}
	if len(v.parts) == 0 {
		return o
	}
	// out stays nil while every part of o so far left v unchanged; the
	// first growth copies v's parts up to that point.
	var out []part
	grow := func(i int) {
		if out == nil {
			out = make([]part, i, len(v.parts)+len(o.parts))
			copy(out, v.parts[:i])
		}
	}
	i := 0
	for _, op := range o.parts {
		for i < len(v.parts) && cmpRegion(v.parts[i].r, op.r) < 0 {
			if out != nil {
				out = append(out, v.parts[i])
			}
			i++
		}
		if i < len(v.parts) && v.parts[i].r == op.r {
			s := v.parts[i].s.Join(op.s)
			if s != v.parts[i].s {
				grow(i)
			}
			if out != nil {
				out = append(out, part{op.r, s})
			}
			i++
			continue
		}
		grow(i)
		out = append(out, op)
	}
	if out == nil {
		return v
	}
	return ValueSet{parts: append(out, v.parts[i:]...)}
}

// WidenFrom widens every region that grew since prev to infinite bounds
// (keeping strides); regions absent from prev are left as joined. When
// nothing widens, v itself is returned.
func (v ValueSet) WidenFrom(prev ValueSet) ValueSet {
	if v.top || prev.top || sameParts(v.parts, prev.parts) {
		return v
	}
	var out []part
	j := 0
	for i, p := range v.parts {
		for j < len(prev.parts) && cmpRegion(prev.parts[j].r, p.r) < 0 {
			j++
		}
		if j == len(prev.parts) || prev.parts[j].r != p.r || prev.parts[j].s == p.s {
			continue
		}
		if s := p.s.WidenFrom(prev.parts[j].s); s != p.s {
			if out == nil {
				out = append([]part(nil), v.parts...)
			}
			out[i].s = s
		}
	}
	if out == nil {
		return v
	}
	return ValueSet{parts: out}
}

// mapParts returns the set with fn applied to every part's offsets.
func (v ValueSet) mapParts(fn func(SI) SI) ValueSet {
	out := make([]part, len(v.parts))
	for i, p := range v.parts {
		out[i] = part{p.r, fn(p.s)}
	}
	return ValueSet{parts: out}
}

// Add is set addition. Adding two pointer sets has no model, so at most
// one operand may have non-numeric regions; the numeric offsets shift
// every region of the other operand.
func (v ValueSet) Add(o ValueSet) ValueSet {
	if v.top || o.top || v.IsBottom() || o.IsBottom() {
		return TopVS
	}
	num, ok := o.NumPart()
	if !ok {
		// Try the symmetric orientation.
		if num, ok = v.NumPart(); !ok {
			return TopVS
		}
		v = o
	}
	return v.mapParts(func(s SI) SI { return s.Add(num) })
}

// Sub is set subtraction. Supported shapes: anything minus a number, and
// pointer minus pointer within the same single region (a plain number).
func (v ValueSet) Sub(o ValueSet) ValueSet {
	if v.top || o.top || v.IsBottom() || o.IsBottom() {
		return TopVS
	}
	if num, ok := o.NumPart(); ok {
		return v.mapParts(func(s SI) SI { return s.Sub(num) })
	}
	if len(v.parts) == 1 && len(o.parts) == 1 && v.parts[0].r == o.parts[0].r {
		return NumVS(v.parts[0].s.Sub(o.parts[0].s))
	}
	return TopVS
}

// Neg negates a numeric set.
func (v ValueSet) Neg() ValueSet {
	if num, ok := v.NumPart(); ok {
		return NumVS(num.Neg())
	}
	return TopVS
}

// MulConst scales a numeric set by k.
func (v ValueSet) MulConst(k int64) ValueSet {
	if num, ok := v.NumPart(); ok {
		return NumVS(num.MulConst(k))
	}
	return TopVS
}

// regionsDisjoint reports whether two distinct regions are known to occupy
// disjoint storage. Distinct frame regions never overlap (symbolized
// allocas get disjoint native-stack storage within an activation, and the
// native stack pointer only descends across activations). The heap and the
// frames are separated by the memory map: the bump allocator grows up from
// isa.HeapBase, far below irexec's native-stack region. Numeric addresses
// are only separable from frames and the heap when they are proven to stay
// below isa.HeapBase (code and globals).
func regionsDisjoint(a Region, sa SI, szA int64, b Region, sb SI, szB int64) bool {
	if a.Kind == RegFrame && b.Kind == RegFrame {
		return a.Base != b.Base
	}
	if (a.Kind == RegFrame && b.Kind == RegHeap) || (a.Kind == RegHeap && b.Kind == RegFrame) {
		return true
	}
	// Num vs Frame or Num vs Heap: order the pair so a is the numeric side.
	if b.Kind == RegNum {
		a, sa, szA = b, sb, szB
	}
	if a.Kind != RegNum {
		return false
	}
	return sa.Lo >= 0 && sa.Hi+szA <= int64(isa.HeapBase)
}

// DisjointAccess reports whether a szA-byte access at any address in v is
// provably byte-disjoint from a szB-byte access at any address in o. Heap
// offsets are summary positions, not concrete addresses, so two heap
// components never separate.
func (v ValueSet) DisjointAccess(szA int64, o ValueSet, szB int64) bool {
	if v.top || o.top || v.IsBottom() || o.IsBottom() {
		return false
	}
	for _, a := range v.parts {
		ra, sa := a.r, a.s
		for _, b := range o.parts {
			rb, sb := b.r, b.s
			if ra == rb {
				if ra.Kind == RegHeap {
					return false // summary region: any two cells may coincide
				}
				if !sa.DisjointAccess(szA, sb, szB) {
					return false
				}
				continue
			}
			if !regionsDisjoint(ra, sa, szA, rb, sb, szB) {
				return false
			}
		}
	}
	return true
}
