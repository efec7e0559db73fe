package core

import (
	"wytiwyg/internal/analysis"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/opt"
	"wytiwyg/internal/par"
	"wytiwyg/internal/typerec"
)

// RefineTypes runs the type-recovery stage: every function's frame slots
// get a type inferred from access widths and strided-interval facts
// (per-function, over the worker pool, results landing in module function
// order; the VSA fixpoints come from the pipeline, shared with the lint),
// then a single sequential unification pass propagates evidence across
// call boundaries. The typed layout, report and per-function stats are
// recorded on the pipeline, and every irreconcilable-evidence event
// becomes a typed-conflict warning. The stage is a no-op unless
// Options.Types was set.
func (p *Pipeline) RefineTypes() error {
	if !p.Types {
		return nil
	}
	funcs := p.Mod.Funcs
	results := make([]*typerec.FuncResult, len(funcs))
	par.ForEach(p.jobs(), len(funcs), func(i int) error {
		results[i] = typerec.AnalyzeFunc(p.fix.get(funcs[i]))
		return nil
	})
	// Unification is deterministic (module/alloca order) and cheap; it
	// runs sequentially after the per-function barrier so the outcome is
	// independent of the worker count.
	typerec.Unify(p.Mod, results)
	p.typeResults = make(map[*ir.Func]*typerec.FuncResult, len(results))
	stats := make([]TypeStat, len(results))
	for i, r := range results {
		p.typeResults[r.Fn()] = r
		st := TypeStat{Func: r.Fn().Name, Elapsed: r.Elapsed, Conflicts: len(r.Conflicts)}
		for _, v := range r.LayoutSlots() {
			st.Slots++
			if v.Type.Committed() {
				st.TypedSlots++
			}
		}
		stats[i] = st
	}
	p.TypeStats = stats
	p.Typed = typerec.TypedLayout(results)
	p.TypeReport = typerec.BuildReport(results)
	for i, r := range results {
		for _, c := range r.Conflicts {
			name := "<unnamed>"
			if c.Slot != nil && c.Slot.Name != "" {
				name = c.Slot.Name
			}
			p.Report.Addf("typed-conflict", analysis.Warn, funcs[i].Name, c.At,
				"slot %s: %s", name, c.Msg)
		}
	}
	p.Report.Sort()
	return p.lintGate("typerec")
}

// TypedInfo builds the optimizer's per-function typed-partition factory
// from the pipeline's Types setting: non-nil only when the stage ran, so
// callers can pass it to opt.PipelineOpts unconditionally.
func (p *Pipeline) TypedInfo() func(*ir.Func) opt.TypedInfo {
	if p.typeResults == nil {
		return nil
	}
	return func(f *ir.Func) opt.TypedInfo {
		r, ok := p.typeResults[f]
		if !ok {
			// An explicit nil interface: a typed nil *FuncResult would
			// defeat the nil check in SplitSlots.
			return nil
		}
		return r
	}
}
