package vsa

import (
	"fmt"

	"wytiwyg/internal/analysis"
)

// Admission: the soundness gate for statically recovered (cold) functions.
// A traced function's layout is trusted because the traces witnessed it; a
// cold function's layout is only a static reconstruction, so it is admitted
// into the recompiled binary exactly when the abstract interpreter can prove
// the reconstruction safe. Anything short of a proof degrades the function
// to a trap stub (the fallback ladder traced → static-verified → trap stub).

// AdmitResult is the verdict for one cold function.
type AdmitResult struct {
	// OK reports whether every frame access was proven in-bounds and no
	// stack object's address escapes the frame.
	OK bool
	// Reason explains a rejection (empty when OK).
	Reason string
	// Stats are the layout-verifier counters backing the verdict.
	Stats CheckStats
}

// Admit decides admission of a lifted cold function from its VSA
// fixpoint fr. The rule is strict on purpose: every access that resolves
// to a stack object must be proven inside its slot (no cross-slot,
// out-of-slot, out-of-frame or unbounded offset sets), and no alloca's
// address may escape the frame — an escaped address could be dereferenced
// by code whose layout assumptions the static recovery cannot see.
func Admit(fr *FuncResult) AdmitResult {
	var scratch analysis.Report
	st := Check(fr, &scratch)
	switch {
	case st.OutOfFrame > 0:
		return AdmitResult{Reason: fmt.Sprintf("%d frame access(es) proven out of frame", st.OutOfFrame), Stats: st}
	case st.OutOfSlot > 0:
		return AdmitResult{Reason: fmt.Sprintf("%d frame access(es) proven to leave their slot", st.OutOfSlot), Stats: st}
	case st.CrossSlot > 0:
		return AdmitResult{Reason: fmt.Sprintf("%d frame access(es) may cross a slot boundary", st.CrossSlot), Stats: st}
	case st.Unbounded > 0:
		return AdmitResult{Reason: fmt.Sprintf("%d frame access(es) with unbounded offsets", st.Unbounded), Stats: st}
	}
	if esc := fr.esc.Escaped; len(esc) > 0 {
		var name string
		for _, b := range fr.fn.Blocks {
			for _, v := range b.Insts {
				if esc[v] {
					name = slotName(v)
					break
				}
			}
			if name != "" {
				break
			}
		}
		return AdmitResult{Reason: fmt.Sprintf("address of stack object %s escapes the frame", name), Stats: st}
	}
	return AdmitResult{OK: true, Stats: st}
}
