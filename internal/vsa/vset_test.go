package vsa

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wytiwyg/internal/ir"
)

// refVS is the reference model ValueSet is checked against: the same
// lattice over a plain region-keyed map, with every operation written in
// its most direct form (copy, update, compare key by key).
type refVS struct {
	top   bool
	parts map[Region]SI
}

func refOf(v ValueSet) refVS {
	r := refVS{top: v.top}
	if len(v.parts) > 0 {
		r.parts = make(map[Region]SI, len(v.parts))
		for _, p := range v.parts {
			r.parts[p.r] = p.s
		}
	}
	return r
}

// toVS builds the slice-backed set holding the model's parts.
func (m refVS) toVS() ValueSet {
	if m.top {
		return TopVS
	}
	out := BottomVS
	for r, s := range m.parts {
		out = out.Join(single(r, s))
	}
	return out
}

func (m refVS) clone() refVS {
	out := refVS{top: m.top, parts: make(map[Region]SI, len(m.parts))}
	for r, s := range m.parts {
		out.parts[r] = s
	}
	return out
}

func (m refVS) bottom() bool { return !m.top && len(m.parts) == 0 }

func (m refVS) eq(o refVS) bool {
	if m.top != o.top || len(m.parts) != len(o.parts) {
		return false
	}
	for r, s := range m.parts {
		if os, ok := o.parts[r]; !ok || os != s {
			return false
		}
	}
	return true
}

func (m refVS) join(o refVS) refVS {
	if m.top || o.top {
		return refVS{top: true}
	}
	out := m.clone()
	for r, s := range o.parts {
		if cur, ok := out.parts[r]; ok {
			out.parts[r] = cur.Join(s)
		} else {
			out.parts[r] = s
		}
	}
	return out
}

func (m refVS) widenFrom(prev refVS) refVS {
	if m.top || prev.top {
		return m
	}
	out := m.clone()
	for r, s := range out.parts {
		if ps, ok := prev.parts[r]; ok && s != ps {
			out.parts[r] = s.WidenFrom(ps)
		}
	}
	return out
}

func (m refVS) only(k RegionKind) (Region, SI, bool) {
	if m.top || len(m.parts) != 1 {
		return Region{}, SI{}, false
	}
	for r, s := range m.parts {
		if r.Kind == k {
			return r, s, true
		}
	}
	return Region{}, SI{}, false
}

func (m refVS) shift(fn func(SI) SI) refVS {
	out := refVS{parts: make(map[Region]SI, len(m.parts))}
	for r, s := range m.parts {
		out.parts[r] = fn(s)
	}
	return out
}

func (m refVS) add(o refVS) refVS {
	if m.top || o.top || m.bottom() || o.bottom() {
		return refVS{top: true}
	}
	_, num, ok := o.only(RegNum)
	if !ok {
		if _, num, ok = m.only(RegNum); !ok {
			return refVS{top: true}
		}
		m = o
	}
	return m.shift(func(s SI) SI { return s.Add(num) })
}

func (m refVS) sub(o refVS) refVS {
	if m.top || o.top || m.bottom() || o.bottom() {
		return refVS{top: true}
	}
	if _, num, ok := o.only(RegNum); ok {
		return m.shift(func(s SI) SI { return s.Sub(num) })
	}
	if len(m.parts) == 1 && len(o.parts) == 1 {
		for r, s := range m.parts {
			if os, ok := o.parts[r]; ok {
				return refVS{parts: map[Region]SI{NumRegion: s.Sub(os)}}
			}
		}
	}
	return refVS{top: true}
}

func (m refVS) mulConst(k int64) refVS {
	if _, num, ok := m.only(RegNum); ok {
		return refVS{parts: map[Region]SI{NumRegion: num.MulConst(k)}}
	}
	return refVS{top: true}
}

func (m refVS) disjointAccess(szA int64, o refVS, szB int64) bool {
	if m.top || o.top || m.bottom() || o.bottom() {
		return false
	}
	for ra, sa := range m.parts {
		for rb, sb := range o.parts {
			if ra == rb {
				if ra.Kind == RegHeap || !sa.DisjointAccess(szA, sb, szB) {
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

func (m refVS) String() string {
	if m.top {
		return "T"
	}
	if len(m.parts) == 0 {
		return "_|_"
	}
	keys := make([]Region, 0, len(m.parts))
	for r := range m.parts {
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var sb strings.Builder
	for i, r := range keys {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%s%s", r, m.parts[r])
	}
	return sb.String()
}

// checkCanonical fails unless v's parts are in canonical region order
// with no region repeated.
func checkCanonical(t *testing.T, what string, v ValueSet) {
	t.Helper()
	for i := 1; i < len(v.parts); i++ {
		if cmpRegion(v.parts[i-1].r, v.parts[i].r) >= 0 {
			t.Fatalf("%s: parts out of canonical order: %v", what, v.parts)
		}
	}
	if v.top && len(v.parts) > 0 {
		t.Fatalf("%s: Top with parts %v", what, v.parts)
	}
}

// vsGen draws random value sets over the num and heap regions and several
// frame regions, from a small pool of strided intervals so that joins hit
// both the growing and the non-growing case often.
type vsGen struct {
	rng     *rand.Rand
	regions []Region
	sis     []SI
}

func newVSGen(seed int64) *vsGen {
	g := &vsGen{rng: rand.New(rand.NewSource(seed))}
	g.regions = []Region{NumRegion, HeapRegion}
	// Frame IDs deliberately disagree with the names' order, so String's
	// name sort and the canonical ID order differ.
	for i, name := range []string{"d", "b", "a", "c"} {
		a := &ir.Value{ID: 10 + 7*i, Op: ir.OpAlloca, Name: name, AllocSize: 16}
		g.regions = append(g.regions, Region{Kind: RegFrame, Base: a})
	}
	g.sis = []SI{TopSI, ConstSI(0), ConstSI(4), ConstSI(-8), ConstSI(1 << 31)}
	for _, sp := range [][3]int64{{0, 12, 4}, {0, 16, 8}, {-4, 4, 2}, {1, 9, 1},
		{0, 1<<32 - 4, 4}, {-(1 << 33), 0, 1}, {100, 160, 20}} {
		g.sis = append(g.sis, SpanSI(sp[0], sp[1], sp[2]))
	}
	return g
}

func (g *vsGen) si() SI { return g.sis[g.rng.Intn(len(g.sis))] }

func (g *vsGen) vs() refVS {
	switch g.rng.Intn(12) {
	case 0:
		return refVS{top: true}
	case 1:
		return refVS{}
	}
	m := refVS{parts: map[Region]SI{}}
	// Mostly small sets; single-part sets exercise the *Part accessors.
	n := 1 + g.rng.Intn(3)
	if g.rng.Intn(4) == 0 {
		n = len(g.regions)
	}
	for i := 0; i < n; i++ {
		m.parts[g.regions[g.rng.Intn(len(g.regions))]] = g.si()
	}
	return m
}

// The slice-backed ValueSet must agree with the map-based reference model
// on every operation, and every result must be in canonical order.
func TestValueSetMatchesReference(t *testing.T) {
	g := newVSGen(1)
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	sizes := []int64{1, 4, 8}
	for it := 0; it < iters; it++ {
		ma, mb := g.vs(), g.vs()
		a, b := ma.toVS(), mb.toVS()
		checkCanonical(t, "build", a)
		if !refOf(a).eq(ma) {
			t.Fatalf("build %v: got %v", ma, a)
		}
		check := func(op string, got ValueSet, want refVS) {
			t.Helper()
			checkCanonical(t, op, got)
			if !refOf(got).eq(want) {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, ma, mb, got, want)
			}
		}
		check("Join", a.Join(b), ma.join(mb))
		check("WidenFrom", a.Join(b).WidenFrom(a), ma.join(mb).widenFrom(ma))
		check("WidenFrom", a.WidenFrom(b), ma.widenFrom(mb))
		check("Add", a.Add(b), ma.add(mb))
		check("Sub", a.Sub(b), ma.sub(mb))
		k := []int64{-3, 0, 1, 4}[g.rng.Intn(4)]
		check("MulConst", a.MulConst(k), ma.mulConst(k))
		if got, want := a.Eq(b), ma.eq(mb); got != want {
			t.Fatalf("Eq(%v, %v) = %v, want %v", ma, mb, got, want)
		}
		if !a.Eq(a) || !a.Eq(ma.toVS()) {
			t.Fatalf("Eq(%v, itself) = false", ma)
		}
		szA, szB := sizes[g.rng.Intn(3)], sizes[g.rng.Intn(3)]
		if got, want := a.DisjointAccess(szA, b, szB), ma.disjointAccess(szA, mb, szB); got != want {
			t.Fatalf("DisjointAccess(%v/%d, %v/%d) = %v, want %v", ma, szA, mb, szB, got, want)
		}
		s, ok := a.NumPart()
		_, ws, wok := ma.only(RegNum)
		if ok != wok || s != ws {
			t.Fatalf("NumPart(%v) = %v %v, want %v %v", ma, s, ok, ws, wok)
		}
		s, ok = a.HeapPart()
		_, ws, wok = ma.only(RegHeap)
		if ok != wok || s != ws {
			t.Fatalf("HeapPart(%v) = %v %v, want %v %v", ma, s, ok, ws, wok)
		}
		base, s, ok := a.FramePart()
		wr, ws, wok := ma.only(RegFrame)
		if ok != wok || (ok && (base != wr.Base || s != ws)) {
			t.Fatalf("FramePart(%v) = %v %v %v, want %v %v %v", ma, base, s, ok, wr.Base, ws, wok)
		}
		if got, want := a.String(), ma.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

// SI.Join is idempotent on normalized intervals — the property that lets
// ValueSet.Join and Eq short-circuit on sets sharing one backing array.
func TestSIJoinIdempotent(t *testing.T) {
	g := newVSGen(2)
	for i := 0; i < 2000; i++ {
		s := g.si()
		lo := g.rng.Int63n(1<<34) - 1<<33
		w := SpanSI(lo, lo+g.rng.Int63n(1<<33), 1+g.rng.Int63n(16))
		for _, x := range []SI{s, w, s.Join(w), w.WidenFrom(s)} {
			if j := x.Join(x); j != x {
				t.Fatalf("%v join itself = %v", x, j)
			}
		}
	}
}

// A join or widening that changes nothing returns the receiver and
// allocates nothing: the fixpoint's steady state is allocation-free.
func TestValueSetNoGrowthAllocs(t *testing.T) {
	g := newVSGen(3)
	var v refVS
	for len(v.parts) < 4 {
		v = g.vs()
	}
	full := v.toVS()
	var sub ValueSet
	for r, s := range v.parts {
		sub = single(r, s)
		break
	}
	var sink ValueSet
	if n := testing.AllocsPerRun(100, func() { sink = full.Join(sub) }); n != 0 {
		t.Errorf("v.Join(subset) allocates %v times, want 0", n)
	}
	if !sameParts(sink.parts, full.parts) {
		t.Errorf("v.Join(subset) did not return the receiver")
	}
	if n := testing.AllocsPerRun(100, func() { sink = full.WidenFrom(full) }); n != 0 {
		t.Errorf("v.WidenFrom(v) allocates %v times, want 0", n)
	}
	// An equal set on its own backing array takes the part-by-part path.
	equal := v.toVS()
	if n := testing.AllocsPerRun(100, func() { sink = full.Join(equal) }); n != 0 {
		t.Errorf("v.Join(equal v) allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = full.WidenFrom(equal) }); n != 0 {
		t.Errorf("v.WidenFrom(equal v) allocates %v times, want 0", n)
	}
	_ = sink
}
