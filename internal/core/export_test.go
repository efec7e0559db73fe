package core

import "wytiwyg/internal/vartrack"

// ReplaySymbolize runs RefineSymbolize's replay alone: the vartrack
// runtime over every input, without the symbolization that follows it.
func (p *Pipeline) ReplaySymbolize() error {
	_, err := p.runAll(vartrack.NewTracer(p.SPOffsets))
	return err
}
