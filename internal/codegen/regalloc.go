package codegen

import (
	"slices"
	"sort"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/isa"
)

// Register allocation: liveness-based linear scan over the callee-saved
// registers EBX/ESI/EDI (which survive calls under the recompiled
// convention); everything else spills to frame slots. Constants
// rematerialize at use; allocas are frame addresses.

// splitCriticalEdges inserts a forwarding block on every edge from a
// multi-successor block into a multi-predecessor block, so phi copies have
// an unambiguous insertion point. It returns a function that removes the
// forwarding blocks again, so code generation leaves the module's CFG as it
// found it.
func splitCriticalEdges(f *ir.Func) (undo func()) {
	n := len(f.Blocks)
	for _, b := range f.Blocks[:n] {
		if len(b.Succs) < 2 {
			continue
		}
		for si, s := range b.Succs {
			if len(s.Preds) < 2 || len(s.Phis) == 0 {
				continue
			}
			nb := f.NewBlock(0)
			j := f.NewValue(ir.OpJmp)
			nb.Append(j)
			nb.Preds = []*ir.Block{b}
			nb.Succs = []*ir.Block{s}
			b.Succs[si] = nb
			for pi, p := range s.Preds {
				if p == b {
					s.Preds[pi] = nb
					break
				}
			}
		}
	}
	return func() {
		for _, nb := range f.Blocks[n:] {
			b, s := nb.Preds[0], nb.Succs[0]
			b.Succs[slices.Index(b.Succs, nb)] = s
			s.Preds[slices.Index(s.Preds, nb)] = b
		}
		f.Blocks = f.Blocks[:n]
	}
}

var allocRegs = [3]isa.Reg{isa.EBX, isa.ESI, isa.EDI}

// assignHomes performs liveness analysis and linear-scan allocation.
func (c *fnCG) assignHomes() {
	f := c.f
	c.homes = make(map[*ir.Value]home)
	c.callExtracts = make(map[*ir.Value][]*ir.Value)

	// Allocas get fixed frame offsets.
	var aoff int32
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op != ir.OpAlloca {
				continue
			}
			size := (int32(v.AllocSize) + 3) &^ 3
			c.homes[v] = home{frameAddr: true, allocOff: aoff}
			aoff += size
		}
	}
	c.allocSize = aoff

	// Number the values in linear order.
	idx := map[*ir.Value]int{}
	var seq []*ir.Value
	number := func(v *ir.Value) {
		idx[v] = len(seq)
		seq = append(seq, v)
	}
	blockStart := map[*ir.Block]int{}
	blockEnd := map[*ir.Block]int{}
	for _, p := range f.Params {
		number(p)
	}
	for _, b := range c.order {
		blockStart[b] = len(seq)
		for _, v := range b.Phis {
			number(v)
		}
		for _, v := range b.Insts {
			number(v)
			if v.Op == ir.OpExtract {
				c.callExtracts[v.Args[0]] = append(c.callExtracts[v.Args[0]], v)
			}
		}
		blockEnd[b] = len(seq)
	}

	// Liveness: backward dataflow over blocks; phi args count as live-out
	// of the corresponding predecessor.
	liveIn := map[*ir.Block]map[*ir.Value]bool{}
	liveOut := map[*ir.Block]map[*ir.Value]bool{}
	for _, b := range c.order {
		liveIn[b] = map[*ir.Value]bool{}
		liveOut[b] = map[*ir.Value]bool{}
	}
	interesting := func(v *ir.Value) bool {
		if v == nil {
			return false
		}
		switch v.Op {
		case ir.OpConst, ir.OpAlloca:
			return false // rematerialized / frame address
		}
		return true
	}
	// memOperand folds add(x, const) addresses and expands tiles at the
	// load/store, re-reading their components there: those values are live
	// at the memory operation.
	foldedAddrUses := func(v *ir.Value) []*ir.Value {
		if v.Op != ir.OpLoad && v.Op != ir.OpStore {
			return nil
		}
		a := v.Args[0]
		if t, ok := c.tiles[a]; ok {
			out := []*ir.Value{t.index}
			if t.base != nil {
				out = append(out, t.base)
			}
			return out
		}
		if a.Op == ir.OpAdd && a.Args[1].Op == ir.OpConst {
			return []*ir.Value{a.Args[0]}
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for i := len(c.order) - 1; i >= 0; i-- {
			b := c.order[i]
			out := map[*ir.Value]bool{}
			for _, s := range b.Succs {
				for v := range liveIn[s] {
					out[v] = true
				}
				// Phi args for the edge b->s.
				for pi, p := range s.Preds {
					if p != b {
						continue
					}
					for _, phi := range s.Phis {
						if pi < len(phi.Args) && interesting(phi.Args[pi]) {
							out[phi.Args[pi]] = true
						}
					}
				}
			}
			in := map[*ir.Value]bool{}
			for v := range out {
				in[v] = true
			}
			for k := len(b.Insts) - 1; k >= 0; k-- {
				v := b.Insts[k]
				delete(in, v)
				for _, a := range v.Args {
					if interesting(a) {
						in[a] = true
					}
				}
				for _, x := range foldedAddrUses(v) {
					if interesting(x) {
						in[x] = true
					}
				}
			}
			for _, phi := range b.Phis {
				delete(in, phi)
			}
			if len(in) != len(liveIn[b]) || len(out) != len(liveOut[b]) {
				changed = true
			} else {
				for v := range in {
					if !liveIn[b][v] {
						changed = true
						break
					}
				}
			}
			liveIn[b] = in
			liveOut[b] = out
		}
	}

	// Loop depth per block (RPO back-edge ranges), for spill weights.
	posOf := map[*ir.Block]int{}
	for i, b := range c.order {
		posOf[b] = i
	}
	depth := map[*ir.Block]int{}
	for _, latch := range c.order {
		for _, hdr := range latch.Succs {
			if hp, ok := posOf[hdr]; ok && hp <= posOf[latch] {
				for i := hp; i <= posOf[latch]; i++ {
					depth[c.order[i]]++
				}
			}
		}
	}
	blockWeight := func(b *ir.Block) int {
		d := depth[b]
		if d > 3 {
			d = 3
		}
		w := 1
		for i := 0; i < d; i++ {
			w *= 8
		}
		return w
	}

	// Intervals.
	type interval struct {
		v          *ir.Value
		start, end int
		weight     int
	}
	ivs := map[*ir.Value]*interval{}
	touchW := func(v *ir.Value, at, w int) {
		if !interesting(v) {
			return
		}
		iv := ivs[v]
		if iv == nil {
			iv = &interval{v: v, start: at, end: at}
			ivs[v] = iv
		}
		if at < iv.start {
			iv.start = at
		}
		if at > iv.end {
			iv.end = at
		}
		iv.weight += w
	}
	touch := func(v *ir.Value, at int) { touchW(v, at, 1) }
	for _, p := range f.Params {
		touch(p, idx[p])
	}
	for _, b := range c.order {
		w := blockWeight(b)
		for _, phi := range b.Phis {
			touchW(phi, idx[phi], w)
		}
		for _, v := range b.Insts {
			if interesting(v) && v.Op.HasResult() {
				touchW(v, idx[v], w)
			}
			for _, a := range v.Args {
				touchW(a, idx[v], w)
			}
			for _, x := range foldedAddrUses(v) {
				touchW(x, idx[v], w)
			}
		}
		// Live-range extension across block boundaries (no weight: mere
		// liveness).
		for v := range liveIn[b] {
			touch(v, blockStart[b])
		}
		for v := range liveOut[b] {
			touch(v, blockEnd[b])
		}
	}

	// Phi-web coalescing: a phi and its arguments share one home when
	// their live intervals do not overlap (the common loop-carried
	// pattern: i / i+1). This turns edge copies into no-ops and lets
	// two-address ALU ops compute in place.
	web := map[*ir.Value]*ir.Value{}
	var findWeb func(v *ir.Value) *ir.Value
	findWeb = func(v *ir.Value) *ir.Value {
		if web[v] == nil || web[v] == v {
			web[v] = v
			return v
		}
		r := findWeb(web[v])
		web[v] = r
		return r
	}
	webIv := map[*ir.Value]*interval{}
	ivOf := func(v *ir.Value) *interval {
		r := findWeb(v)
		if wiv := webIv[r]; wiv != nil {
			return wiv
		}
		return ivs[r]
	}
	for _, b := range c.order {
		if c.g.opts.NoCoalesce {
			break
		}
		for _, phi := range b.Phis {
			if ivs[phi] == nil {
				continue
			}
			for _, a := range phi.Args {
				if !interesting(a) || a.Op == ir.OpParam || ivs[a] == nil {
					continue
				}
				ra, rp := findWeb(a), findWeb(phi)
				if ra == rp {
					continue
				}
				ia, ip2 := ivOf(a), ivOf(phi)
				if ia == nil || ip2 == nil {
					continue
				}
				// Disjoint (touching endpoints allowed): safe to share.
				if ia.end <= ip2.start || ip2.end <= ia.start {
					merged := &interval{
						v:      rp,
						start:  min(ia.start, ip2.start),
						end:    max(ia.end, ip2.end),
						weight: ia.weight + ip2.weight,
					}
					web[ra] = rp
					webIv[rp] = merged
				}
			}
		}
	}
	// Collapse webs: every member maps to its root's interval.
	rootIvs := map[*ir.Value]*interval{}
	members := map[*ir.Value][]*ir.Value{}
	for v, iv := range ivs {
		r := findWeb(v)
		members[r] = append(members[r], v)
		if wiv := webIv[r]; wiv != nil {
			rootIvs[r] = wiv
		} else if v == r {
			rootIvs[r] = iv
		}
	}
	for r := range members {
		if rootIvs[r] == nil {
			rootIvs[r] = ivs[r]
		}
	}

	// Linear scan, preferring hot (high-weight) values.
	var list []*interval
	for r, iv := range rootIvs {
		if iv == nil {
			continue
		}
		iv.v = r
		list = append(list, iv)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].start != list[j].start {
			return list[i].start < list[j].start
		}
		return idx[list[i].v] < idx[list[j].v]
	})
	type active struct {
		iv  *interval
		reg isa.Reg
	}
	var act []active
	free := []isa.Reg{allocRegs[0], allocRegs[1], allocRegs[2]}
	usedReg := map[isa.Reg]bool{}
	expire := func(at int) {
		out := act[:0]
		for _, a := range act {
			if a.iv.end < at {
				free = append(free, a.reg)
			} else {
				out = append(out, a)
			}
		}
		act = out
	}
	for _, iv := range list {
		expire(iv.start)
		// Values that must stay addressable (multi-result extras handled
		// via homes anyway) — everything is eligible.
		if len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			act = append(act, active{iv: iv, reg: r})
			c.homes[iv.v] = home{inReg: true, reg: r}
			usedReg[r] = true
			continue
		}
		// Spill the least-weighted of the active set and this one.
		minW := iv.weight
		minAt := -1
		for i, a := range act {
			if a.iv.weight < minW {
				minW = a.iv.weight
				minAt = i
			}
		}
		if minAt >= 0 {
			victim := act[minAt]
			c.homes[victim.iv.v] = home{slot: c.slots}
			c.slots++
			act[minAt] = active{iv: iv, reg: victim.reg}
			c.homes[iv.v] = home{inReg: true, reg: victim.reg}
		} else {
			c.homes[iv.v] = home{slot: c.slots}
			c.slots++
		}
	}
	// Propagate web homes to members.
	for r, ms := range members {
		h, ok := c.homes[r]
		if !ok {
			continue
		}
		for _, m := range ms {
			c.homes[m] = h
		}
	}
	for r := range usedReg {
		c.saved = append(c.saved, r)
	}
	sort.Slice(c.saved, func(i, j int) bool { return c.saved[i] < c.saved[j] })

	// Parameters not register-allocated live in the incoming argument area.
	for i, p := range f.Params {
		h, ok := c.homes[p]
		if ok && h.inReg {
			c.homes[p] = home{inReg: true, reg: h.reg}
			_ = i
			continue
		}
		c.homes[p] = home{param: true, pidx: i}
	}

	// Constants rematerialize.
	for _, b := range f.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpConst {
				c.homes[v] = home{konst: true, cval: v.Const}
			}
		}
	}
	for _, p := range f.Params {
		if p.Op == ir.OpConst { // dropped params became constants
			c.homes[p] = home{konst: true, cval: p.Const}
		}
	}
	// Anything untouched (dead values with side effects, e.g. calls whose
	// results are unused) still needs a home for its result.
	assign := func(v *ir.Value) {
		if _, ok := c.homes[v]; ok {
			return
		}
		if v.Op == ir.OpConst {
			c.homes[v] = home{konst: true, cval: v.Const}
			return
		}
		c.homes[v] = home{slot: c.slots}
		c.slots++
	}
	for _, p := range f.Params {
		assign(p)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			assign(v)
		}
		for _, v := range b.Insts {
			if v.Op.HasResult() {
				assign(v)
			}
		}
	}
}
