package core

import (
	"sync"

	"wytiwyg/internal/ir"
	"wytiwyg/internal/vsa"
)

// FixpointStats counts the VSA fixpoints a pipeline handed to its
// consumers (the VSA stage, type recovery and the optimizer's alias
// oracle). Both counts are deterministic: they do not depend on
// Options.Jobs.
type FixpointStats struct {
	// Computed counts vsa.Analyze runs.
	Computed int
	// Reused counts requests served by a stored fixpoint whose function
	// was unchanged since it was analyzed.
	Reused int
}

// fixpoints owns one VSA result per function. A request reuses the
// stored result only while vsa.FuncResult.Current proves the function
// unchanged, and otherwise analyzes it again and stores the new result.
// Results are shared, so consumers treat them as read-only. Requests for
// different functions may come from concurrent workers; requests for one
// function never overlap (each stage hands a function to one worker, and
// the optimizer asks sequentially), which keeps the counts deterministic.
type fixpoints struct {
	mu     sync.Mutex
	byFunc map[*ir.Func]*vsa.FuncResult
	stats  FixpointStats
}

// get returns f's current fixpoint.
func (c *fixpoints) get(f *ir.Func) *vsa.FuncResult {
	c.mu.Lock()
	fr := c.byFunc[f]
	c.mu.Unlock()
	if fr != nil && fr.Current() {
		c.mu.Lock()
		c.stats.Reused++
		c.mu.Unlock()
		return fr
	}
	fr = vsa.Analyze(f)
	c.mu.Lock()
	if c.byFunc == nil {
		c.byFunc = make(map[*ir.Func]*vsa.FuncResult)
	}
	c.byFunc[f] = fr
	c.stats.Computed++
	c.mu.Unlock()
	return fr
}

// Fixpoints reports how many VSA fixpoints the pipeline has computed and
// reused so far, including those of the optimizer's oracle factory.
func (p *Pipeline) Fixpoints() FixpointStats {
	p.fix.mu.Lock()
	defer p.fix.mu.Unlock()
	return p.fix.stats
}
