package vsa

import (
	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
)

// Layout verifier: the static half of the paper's trust story. Dynamic
// recovery splits the frame exactly as the traces witnessed it, so
// incomplete coverage over-splits objects (paper §6's admitted blind
// spot). VSA proves, per access, the offset set actually reachable. An
// access that can cross its slot's boundary is the over-splitting
// signature (Warn), and so is one whose offsets VSA cannot bound. An
// access that can never stay inside its slot — every possible target
// leaves it, or the whole recovered frame — is a miscompilation witness
// (Error): symbolization promised it lands inside the object it was
// assigned to (paper §4.2).

// CheckStats summarizes one function's verified accesses.
type CheckStats struct {
	// Checked counts accesses resolved to a single stack object.
	Checked int
	// CrossSlot counts accesses that may cross their slot's boundary
	// while staying inside the frame (possible over-splitting, Warn).
	CrossSlot int
	// OutOfSlot counts accesses proven never to stay inside their slot
	// while possibly touching the frame (Error).
	OutOfSlot int
	// OutOfFrame counts accesses proven to miss the entire recovered
	// frame (Error).
	OutOfFrame int
	// Unbounded counts accesses whose offset set wrapped or widened to an
	// unbounded interval — nothing is provable about them either way
	// (Warn). Admission of statically recovered code treats these as
	// failures.
	Unbounded int
}

// Check verifies f's recovered layout against the VSA fixpoint fr,
// appending "vsa" diagnostics to rep.
func Check(fr *FuncResult, rep *analysis.Report) CheckStats {
	f := fr.Fn()
	// The recovered frame extent, in sp0-relative offsets.
	frameLo, frameHi := int64(0), int64(0)
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpAlloca {
				continue
			}
			if lo := int64(v.Const); lo < frameLo {
				frameLo = lo
			}
			if hi := int64(v.Const) + int64(v.AllocSize); hi > frameHi {
				frameHi = hi
			}
		}
	}
	var st CheckStats
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpLoad && v.Op != ir.OpStore {
				continue
			}
			addr := fr.ValueSetOf(v.Args[0])
			base, offs, ok := addr.FramePart()
			if !ok {
				// A set that fell to Top lost its region, but an address
				// the escape analysis derives from one alloca is still a
				// stack access, at offsets nothing bounds.
				root := fr.esc.Roots[v.Args[0]]
				if !addr.IsTop() || root == nil {
					continue
				}
				base, offs = root, TopSI
			}
			st.Checked++
			size := accSize(v)
			slotSize := int64(base.AllocSize)
			if offs.unbounded() {
				st.Unbounded++
				rep.Addf("vsa", analysis.Warn, f.Name, v,
					"cannot prove %s of %d byte(s) at %s+%s stays inside its slot [0,%d): the offsets are unbounded",
					v.Op, size, slotName(base), offs, slotSize)
				continue
			}
			if offs.Lo >= 0 && offs.Hi+size <= slotSize {
				continue // proven inside the slot
			}
			// sp0-relative extent of the access.
			accLo := int64(base.Const) + offs.Lo
			accHi := int64(base.Const) + offs.Hi + size
			if accHi <= frameLo || accLo >= frameHi {
				st.OutOfFrame++
				rep.Addf("vsa", analysis.Error, f.Name, v,
					"%s of %d byte(s) at %s%s is proven outside the recovered frame [%d,%d)",
					v.Op, size, slotName(base), offs, frameLo, frameHi)
				continue
			}
			if offs.Hi < 0 || offs.Lo+size > slotSize {
				st.OutOfSlot++
				rep.Addf("vsa", analysis.Error, f.Name, v,
					"%s of %d byte(s) at %s%s is proven to leave its slot [0,%d)",
					v.Op, size, slotName(base), offs, slotSize)
				continue
			}
			st.CrossSlot++
			rep.Addf("vsa", analysis.Warn, f.Name, v,
				"%s of %d byte(s) at %s%s may cross the slot boundary [0,%d) — possible over-splitting from incomplete trace coverage",
				v.Op, size, slotName(base), offs, slotSize)
		}
	}
	return st
}

func slotName(a *ir.Value) string {
	if a.Name != "" {
		return a.Name
	}
	return a.String()
}
