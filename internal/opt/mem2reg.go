package opt

import (
	"strings"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/layout"
)

// Mem2Reg promotes non-escaping scalar allocas to SSA values — the headline
// payoff of stack symbolization: once the frame is partitioned into distinct
// objects, scalar slots stop being opaque memory and the optimizer can hold
// them in registers. Returns the number of promoted allocas.
//
// An alloca is promotable when every use is a direct load or store of one
// uniform access size (1, 2 or 4) at offset 0. Address-taken slots (their
// pointer flows anywhere else) stay in memory.
func Mem2Reg(f *ir.Func) int { return Mem2RegLog(f, nil) }

// Mem2RegLog promotes like Mem2Reg and, when log is non-nil, records each
// promoted stack object (promoted scalars were real recovered variables:
// the Figure 7 comparison counts them even though they no longer occupy
// frame memory).
func Mem2RegLog(f *ir.Func, log *layout.Program) int {
	// Collect candidates first: promotion rewrites instruction lists.
	var allocas []*ir.Value
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpAlloca {
				allocas = append(allocas, v)
			}
		}
	}
	// Escape gate: promotable() already rejects indirect uses, but the
	// analysis layer's escape facts are the authoritative safety argument
	// (an escaped slot may be written behind the optimizer's back).
	escaped := analysis.Escapes(f)
	promoted := 0
	var uses ir.Uses
	stale := true
	for _, a := range allocas {
		if escaped[a] {
			continue
		}
		// A promotion rewrites uses; only then is the index rebuilt.
		if stale {
			uses, stale = ir.BuildUses(f), false
		}
		if size, ok := promotable(a, uses); ok {
			if log != nil && a.Const < 0 && !strings.HasPrefix(a.Name, "cp_") {
				fr := log.Frame(f.Name)
				if fr == nil {
					fr = &layout.Frame{Func: f.Name}
					log.Add(fr)
				}
				fr.Vars = append(fr.Vars, layout.Var{
					Name: a.Name, Offset: a.Const, Size: a.AllocSize,
				})
			}
			promoteAlloca(f, a, size)
			promoted++
			stale = true
		}
	}
	if promoted > 0 {
		DCE(f)
		RemoveDeadAllocas(f)
	}
	return promoted
}

// Mem2RegModule promotes across every function.
func Mem2RegModule(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += Mem2Reg(f)
	}
	return n
}

// promotable checks the use set and returns the uniform access size.
func promotable(a *ir.Value, uses ir.Uses) (uint8, bool) {
	if a.AllocSize > 4 {
		return 0, false
	}
	var size uint8
	for _, u := range uses.Of(a) {
		switch u.Op {
		case ir.OpLoad:
			if u.Args[0] != a {
				return 0, false
			}
			if size == 0 {
				size = u.Size
			} else if size != u.Size {
				return 0, false
			}
		case ir.OpStore:
			// The slot address must be the *address* operand only; a store
			// OF the address escapes it.
			if u.Args[0] != a || u.Args[1] == a {
				return 0, false
			}
			if size == 0 {
				size = u.Size
			} else if size != u.Size {
				return 0, false
			}
		default:
			return 0, false
		}
	}
	if size == 0 {
		size = 4
	}
	if uint32(size) > a.AllocSize {
		return 0, false
	}
	return size, true
}

// promoteAlloca rewrites loads/stores of a into SSA form (Braun-style
// construction over the existing CFG).
func promoteAlloca(f *ir.Func, a *ir.Value, size uint8) {
	defs := make(map[*ir.Block]*ir.Value)
	incomplete := make(map[*ir.Block]*ir.Value)
	sealed := make(map[*ir.Block]bool)
	filled := make(map[*ir.Block]bool)

	// The "uninitialized slot" value. Created eagerly: the rewrite below
	// filters block instruction lists in place, so the entry list must not
	// change shape mid-flight.
	zero := f.NewValue(ir.OpConst)
	zero.Const = 0
	zero.Block = f.Entry()
	f.Entry().Insts = append([]*ir.Value{zero}, f.Entry().Insts...)
	mkZero := func() *ir.Value { return zero }

	var readVar func(b *ir.Block) *ir.Value
	readVar = func(b *ir.Block) *ir.Value {
		if v := defs[b]; v != nil {
			return v
		}
		var v *ir.Value
		switch {
		case !sealed[b]:
			v = f.NewValue(ir.OpPhi)
			b.AddPhi(v)
			incomplete[b] = v
		case len(b.Preds) == 0:
			v = mkZero()
		case len(b.Preds) == 1:
			v = readVar(b.Preds[0])
		default:
			v = f.NewValue(ir.OpPhi)
			b.AddPhi(v)
			defs[b] = v
			for _, p := range b.Preds {
				v.AddArg(readVar(p))
			}
		}
		defs[b] = v
		return v
	}
	trySeal := func() {
		for _, b := range f.Blocks {
			if sealed[b] {
				continue
			}
			ok := true
			for _, p := range b.Preds {
				if !filled[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if phi := incomplete[b]; phi != nil {
				for _, p := range b.Preds {
					phi.AddArg(readVar(p))
				}
				delete(incomplete, b)
			}
			sealed[b] = true
		}
	}

	// Process blocks in reverse post order.
	order := ir.RPOAll(f)
	trySeal()
	for _, b := range order {
		insts := b.Insts[:0]
		for _, v := range b.Insts {
			switch {
			case v.Op == ir.OpLoad && v.Args[0] == a:
				cur := readVar(b)
				// Sub-word slots: loads see the truncated/extended value.
				repl := cur
				if size < 4 {
					ext := f.NewValue(ir.OpSext, cur)
					if !v.Signed {
						ext.Op = ir.OpZext
					}
					ext.Size = size
					ext.Block = b
					insts = append(insts, ext)
					repl = ext
				}
				ReplaceUses(f, v, repl)
				continue // drop the load
			case v.Op == ir.OpStore && v.Args[0] == a:
				defs[b] = v.Args[1]
				continue // drop the store
			}
			insts = append(insts, v)
		}
		b.Insts = insts
		filled[b] = true
		trySeal()
	}
	// Any unsealed stragglers (unreachable blocks): give their phis zero
	// args per pred.
	for b, phi := range incomplete {
		for range b.Preds {
			phi.AddArg(mkZero())
		}
	}
	// Fix phi argument order: AddArg appended in b.Preds order already.
	// The dead alloca goes with Mem2RegLog's sweep after the last promotion.
}
