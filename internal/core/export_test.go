package core

import (
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/regsave"
	"wytiwyg/internal/varargs"
	"wytiwyg/internal/vartrack"
)

// ReplaySymbolize runs RefineSymbolize's replay alone: the vartrack
// runtime over every input, without the symbolization that follows it.
func (p *Pipeline) ReplaySymbolize() error {
	_, _, err := p.runAll(vartrack.NewTracer(p.SPOffsets))
	return err
}

// program returns a Program of the current module under tr's compiled
// actions, or with the Generic action everywhere when filtered is false.
func (p *Pipeline) program(tr replayTracer, filtered bool) *irexec.Program {
	if filtered {
		return irexec.NewProgram(p.Mod, tr)
	}
	return irexec.NewProgram(p.Mod, nil)
}

// ReplayRegSaveResults runs RefineRegSave's replay alone, without the
// signature rewrite, and returns the classification, the variadic-call
// counts and the hooks called.
func (p *Pipeline) ReplayRegSaveResults(filtered bool) (regsave.Classes, map[*ir.Value]int, uint64, error) {
	tr := newRegsaveTracer(regsave.NewTracer(), varargs.NewTracer())
	_, hooks, err := p.replay(p.program(tr, filtered), tr)
	if err != nil {
		return nil, nil, 0, err
	}
	return tr.Classify(p.Mod), tr.va.Counts, hooks, nil
}

// ReplaySymbolizeResult runs RefineSymbolize's replay alone and returns
// the vartrack result and the hooks called.
func (p *Pipeline) ReplaySymbolizeResult(filtered bool) (*vartrack.Result, uint64, error) {
	tr := vartrack.NewTracer(p.SPOffsets)
	_, hooks, err := p.replay(p.program(tr, filtered), tr)
	if err != nil {
		return nil, 0, err
	}
	return tr.Result(), hooks, nil
}
