package vsa

import (
	"sort"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
)

// Coverage backstop: dynamic recovery splits the frame exactly as traced,
// so objects whose elements were never all touched come out split — sound
// for the traced inputs, fragile beyond them. The backstop widens the
// recovered layout until every statically possible access fits inside one
// object: bounded cross-slot offset sets merge the spanned slots, while an
// access whose target the analysis cannot bound — unbounded frame offsets,
// or a fully unknown address that may point anywhere including the frame —
// collapses the local area into a single conservative symbol, exactly the
// static symbolizer's blob response to dynamic stack addressing. The
// result trades exact matches for guaranteed coverage and is reported
// alongside the dynamic layout's precision/recall in examples/accuracy.

// BackstopStats summarizes one frame's widening.
type BackstopStats struct {
	// Merged counts slots that were absorbed into a wider object.
	Merged int
	// Blobbed reports that an unbounded access collapsed the local area.
	Blobbed bool
}

// Backstop returns a copy of the recovered frame widened so that no
// statically possible frame access crosses an object boundary. The input
// frame is not modified; positive-offset (argument) slots never merge.
func Backstop(fr *FuncResult, frame *layout.Frame) (*layout.Frame, BackstopStats) {
	var st BackstopStats
	if frame == nil || len(frame.Vars) == 0 {
		return frame, st
	}
	frameLo := int32(0)
	for _, v := range frame.Vars {
		if v.Offset < frameLo {
			frameLo = v.Offset
		}
	}
	// Collect the sp0-relative byte ranges accesses may reach beyond their
	// slot, clamped to the local area [frameLo, 0).
	type span struct{ lo, hi int32 }
	var spans []span
	f := fr.Fn()
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpLoad && v.Op != ir.OpStore {
				continue
			}
			addr := fr.ValueSetOf(v.Args[0])
			if addr.IsTop() {
				// The access may target any byte of the frame.
				st.Blobbed = true
				spans = append(spans, span{frameLo, 0})
				continue
			}
			size := accSize(v)
			for _, p := range addr.parts {
				r, offs := p.r, p.s
				if r.Kind != RegFrame {
					continue // numeric and heap targets are off-frame
				}
				base := r.Base
				if offs.Lo >= 0 && offs.Hi+size <= int64(base.AllocSize) {
					continue // proven inside its slot
				}
				lo, hi := int64(frameLo), int64(0)
				if !offs.unbounded() {
					lo = max64(lo, int64(base.Const)+offs.Lo)
					hi = min64(hi, int64(base.Const)+offs.Hi+size)
				} else {
					st.Blobbed = true
				}
				if lo < hi {
					spans = append(spans, span{int32(lo), int32(hi)})
				}
			}
		}
	}
	if len(spans) == 0 {
		return frame, st
	}
	// Widen: recovered slots and access spans merge transitively — every
	// maximal chain of byte-overlapping intervals becomes one object — so
	// a span reaching past an already-widened object keeps growing it and
	// the postcondition (no span crosses an output object boundary) holds
	// after a single sweep. Argument slots pass through untouched; a chain
	// holding only spans names no recovered storage and is dropped.
	out := &layout.Frame{Func: frame.Func}
	type iv struct {
		lo, hi int32
		name   string // lowest-offset slot in the chain; "" for spans
		slots  int
	}
	items := make([]iv, 0, len(frame.Vars)+len(spans))
	for _, v := range frame.Vars {
		if v.Offset >= 0 {
			out.Vars = append(out.Vars, v)
		} else {
			items = append(items, iv{v.Offset, v.End(), v.Name, 1})
		}
	}
	for _, sp := range spans {
		items = append(items, iv{sp.lo, sp.hi, "", 0})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].lo != items[j].lo {
			return items[i].lo < items[j].lo
		}
		return items[i].slots > items[j].slots // slots first: they name the chain
	})
	emit := func(c iv) {
		if c.slots == 0 {
			return // span chain touched no recovered slot
		}
		st.Merged += c.slots - 1 // n slots merging yields one object
		out.Vars = append(out.Vars, layout.Var{Name: c.name, Offset: c.lo, Size: uint32(c.hi - c.lo)})
	}
	cur, open := iv{}, false
	for _, it := range items {
		if open && it.lo < cur.hi {
			if it.hi > cur.hi {
				cur.hi = it.hi
			}
			if cur.name == "" {
				cur.name = it.name
			}
			cur.slots += it.slots
			continue
		}
		if open {
			emit(cur)
		}
		cur, open = it, true
	}
	if open {
		emit(cur)
	}
	out.Sort()
	return out, st
}

// unbounded reports whether the offset set escapes the signed 32-bit
// range — an infinity, or a wrapped congruence class spanning the
// unsigned window — in which case base+offset arithmetic on its bounds
// says nothing about where the access lands in the frame.
func (s SI) unbounded() bool {
	return s.Lo < -(1<<31) || s.Hi >= 1<<31
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
