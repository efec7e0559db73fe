package coldrec

import (
	"sort"

	"wytiwyg/internal/funcrec"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/tracer"
)

// mergeLog records everything Merge added, so Unmerge can restore the
// dynamic structures exactly if lifting the merged module fails.
type mergeLog struct {
	merged    bool
	blocks    []uint32    // keys added to cfg.Blocks
	funcs     []uint32    // entries added to rec (Funcs/ByEntry)
	tails     []uint32    // sites added to cfg.TailJumps and rec.TailCalls
	callPairs [][2]uint32 // (indirect call site, dispatch target) pairs added
}

// Merge splices the accepted candidates into the dynamic structures in
// place: cold blocks join the CFG, cold functions join the recovery result,
// cold tail sites join the tail-jump sets, and indirect-call dispatch sets —
// both at cold call sites and at traced ones — are widened with the
// recovered address-taken entries so an indirect call can reach an
// admitted cold function instead of trapping. Traced functions' bodies are
// never touched. The additions are recorded so Unmerge can undo them.
func Merge(cfg *tracer.CFG, rec *funcrec.Result, res *Result) {
	t := cfg.Trace
	log := &res.log
	log.merged = true
	for _, c := range res.Cands {
		for _, start := range c.Starts {
			cfg.Blocks[start] = c.Blocks[start]
			log.blocks = append(log.blocks, start)
		}
		fn := &funcrec.Function{Name: c.Name, Entry: c.Entry, Blocks: entryFirst(c.Entry, c.Starts)}
		rec.Funcs = append(rec.Funcs, fn)
		rec.ByEntry[c.Entry] = fn
		for _, start := range c.Starts {
			rec.Owner[start] = fn
		}
		log.funcs = append(log.funcs, c.Entry)
		for _, site := range c.TailSites {
			if !cfg.TailJumps[site] {
				cfg.TailJumps[site] = true
				rec.TailCalls[site] = true
				log.tails = append(log.tails, site)
			}
		}
		for _, site := range c.CallRSites {
			res.widen(t, site)
		}
	}
	// Traced indirect call sites only observed the targets the traced
	// inputs exercised; other inputs may dispatch to a recovered cold
	// function through the same site.
	for i := range t.Img.Code {
		if site := obj.AddrOf(i); t.Img.Code[i].Op == isa.CALLR && t.Ran(site) {
			res.widen(t, site)
		}
	}
	sort.Slice(rec.Funcs, func(i, j int) bool { return rec.Funcs[i].Entry < rec.Funcs[j].Entry })
}

// widen adds the recovered dispatch set to the call site's target set,
// logging each addition.
func (r *Result) widen(t *tracer.Trace, site uint32) {
	for _, e := range r.Dispatch {
		if t.AddIndirect(site, e) {
			r.log.callPairs = append(r.log.callPairs, [2]uint32{site, e})
		}
	}
}

// Unmerge restores the structures Merge modified: the all-or-nothing safety
// net for a lift failure over the merged module.
func Unmerge(cfg *tracer.CFG, rec *funcrec.Result, res *Result) {
	if !res.log.merged {
		return
	}
	t := cfg.Trace
	for _, start := range res.log.blocks {
		delete(cfg.Blocks, start)
		delete(rec.Owner, start)
	}
	drop := make(map[uint32]bool, len(res.log.funcs))
	for _, e := range res.log.funcs {
		delete(rec.ByEntry, e)
		drop[e] = true
	}
	kept := rec.Funcs[:0]
	for _, fn := range rec.Funcs {
		if !drop[fn.Entry] {
			kept = append(kept, fn)
		}
	}
	rec.Funcs = kept
	for _, site := range res.log.tails {
		delete(cfg.TailJumps, site)
		delete(rec.TailCalls, site)
	}
	for _, pair := range res.log.callPairs {
		t.RemoveIndirect(pair[0], pair[1])
	}
	res.log = mergeLog{}
}

// entryFirst orders block starts the way funcrec does: the entry first, the
// rest ascending.
func entryFirst(entry uint32, starts []uint32) []uint32 {
	out := make([]uint32, 0, len(starts))
	out = append(out, entry)
	for _, s := range starts {
		if s != entry {
			out = append(out, s)
		}
	}
	return out
}
