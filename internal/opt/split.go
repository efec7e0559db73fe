package opt

import (
	"fmt"
	"slices"

	"wytiwyg/internal/ir"
)

// Type-directed slot splitting (a scalar-replacement-of-aggregates step).
// The type-recovery pass partitions a frame slot into fields; when every
// access to the slot provably hits exactly one field, the slot can be
// split into one alloca per field. The split turns partial accesses into
// full-width accesses at offset zero, which is exactly the shape mem2reg
// promotes — so a struct slot whose fields are scalars melts into SSA
// registers on the next round.

// TypedInfo is the typed-layout interface the optimizer consumes. It is
// implemented by typerec.FuncResult; opt only depends on the contract so
// the packages stay layered.
type TypedInfo interface {
	// SlotPartition returns the slot's committed field partition as
	// [offset,size) pairs sorted by offset, or nil when the slot has no
	// committed multi-cell type. The partition is a claim, not a proof:
	// SplitSlots independently verifies that every access lands exactly
	// on one field before rewriting anything.
	SlotPartition(a *ir.Value) [][2]int64
}

// sanePartition verifies the partition's shape: sorted, non-overlapping,
// in-bounds fields of positive size.
func sanePartition(fields [][2]int64, size int64) bool {
	prev := int64(0)
	for _, fld := range fields {
		off, sz := fld[0], fld[1]
		if off < prev || sz <= 0 || off+sz > size {
			return false
		}
		prev = off + sz
	}
	return true
}

// SplitSlots splits every entry-block alloca whose typed partition has at
// least two fields and whose every use is proven — by a syntactic use
// walk, independent of the type claim — to be a load or store landing
// exactly on one field. Each field becomes a child alloca at the parent's
// frame offset plus the field offset; accesses are redirected and the
// parent (and its address arithmetic) dies by DCE. Returns the number of
// slots split.
func SplitSlots(f *ir.Func, info TypedInfo) int {
	if info == nil {
		return 0
	}
	entry := f.Entry()
	if entry == nil {
		return 0
	}
	uses := ir.BuildUses(f)
	n := 0
	// Snapshot the entry instructions: splitting appends new allocas.
	insts := append([]*ir.Value{}, entry.Insts...)
	for _, a := range insts {
		if a.Op != ir.OpAlloca || a.Block != entry {
			continue
		}
		fields := info.SlotPartition(a)
		if len(fields) < 2 || !sanePartition(fields, int64(a.AllocSize)) {
			continue
		}
		if splitOne(f, entry, a, fields, uses) {
			n++
		}
	}
	if n > 0 {
		DCE(f)
		RemoveDeadAllocas(f)
	}
	return n
}

// fieldAt returns the index of the field exactly matching an access at
// [off, off+sz), or -1.
func fieldAt(fields [][2]int64, off, sz int64) int {
	for i, fld := range fields {
		if fld[0] == off && fld[1] == sz {
			return i
		}
	}
	return -1
}

// splitOne verifies and rewrites a single slot. The proof obligation per
// use of the alloca: a load/store uses it directly as the address (an
// access at offset 0), or an Add with a constant whose every use is a
// load/store address (an access at that offset) — and each access's
// [offset, size) equals one partition field exactly. Anything else (a
// stored address, a call argument, variable indexing) escapes the slot
// and vetoes the split.
func splitOne(f *ir.Func, entry *ir.Block, a *ir.Value, fields [][2]int64, uses ir.Uses) bool {
	type acc struct {
		v     *ir.Value // the load or store
		field int
	}
	var accs []acc
	check := func(v, addr *ir.Value, off int64) bool {
		var sz int64
		switch v.Op {
		case ir.OpLoad:
			if v.Args[0] != addr {
				return false
			}
			sz = accSz(v.Size)
		case ir.OpStore:
			// The address position only; storing the address escapes.
			if v.Args[0] != addr || v.Args[1] == addr {
				return false
			}
			sz = accSz(v.Size)
		default:
			return false
		}
		i := fieldAt(fields, off, sz)
		if i < 0 {
			return false
		}
		accs = append(accs, acc{v, i})
		return true
	}
	for _, u := range uses[a] {
		switch u.Op {
		case ir.OpLoad, ir.OpStore:
			if !check(u, a, 0) {
				return false
			}
		case ir.OpAdd:
			base, k := u.Args[0], u.Args[1]
			if base != a {
				base, k = k, base
			}
			if base != a || k.Op != ir.OpConst {
				return false
			}
			off := int64(k.Const)
			for _, uu := range uses[u] {
				if !check(uu, u, off) {
					return false
				}
			}
		default:
			return false
		}
	}
	if len(accs) == 0 {
		return false
	}
	// Verified: materialize one child alloca per field and redirect.
	children := make([]*ir.Value, len(fields))
	for i, fld := range fields {
		c := f.NewValue(ir.OpAlloca)
		c.AllocSize = uint32(fld[1])
		c.Const = a.Const + int32(fld[0])
		c.Name = fmt.Sprintf("%s.%d", a.Name, fld[0])
		al := a.Align
		for al > 1 && fld[0]%int64(al) != 0 {
			al /= 2
		}
		c.Align = al
		children[i] = c
	}
	for _, c := range children {
		c.Block = entry
	}
	entry.Insts = slices.Insert(entry.Insts, slices.Index(entry.Insts, a)+1, children...)
	for _, ac := range accs {
		ac.v.Args[0] = children[ac.field]
	}
	// The parent and its address Adds are now dead; DCE reaps them.
	return true
}
