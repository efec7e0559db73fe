// Package varargs implements the variadic-call refinement of §5.2: calls to
// external functions with variable argument lists are initially lifted in
// BinRec's stack-switching form (OpCallExtRaw, arguments living in emulated
// stack memory). This refinement inspects each call site at runtime — for
// printf-style functions it parses the format string — to determine the
// exact per-site argument count, then rewrites the site into a fully lifted
// call with explicit arguments so that stack symbolization can proceed.
package varargs

import (
	"fmt"

	"wytiwyg/internal/extdb"
	"wytiwyg/internal/ir"
	"wytiwyg/internal/irexec"
	"wytiwyg/internal/machine"
)

// Tracer records observed argument counts per raw variadic call site.
type Tracer struct {
	// Counts is the maximal observed argument count per call site.
	Counts map[*ir.Value]int
	// failed records why a site's count could not be derived: its extern
	// is missing from the database or its format string is unreadable.
	failed map[*ir.Value]error
}

// NewTracer returns an empty varargs analysis.
func NewTracer() *Tracer {
	return &Tracer{
		Counts: make(map[*ir.Value]int),
		failed: make(map[*ir.Value]error),
	}
}

// Fork returns a fresh tracer for one input's run; per-input argument
// counts merge with Join.
func (t *Tracer) Fork() irexec.Tracer { return NewTracer() }

// Join folds a forked tracer's observations into t: the per-site count is
// the maximum across runs (a max-merge is commutative, so the join order
// does not matter), and failed sites accumulate.
func (t *Tracer) Join(o irexec.Tracer) {
	ot := o.(*Tracer)
	for v, n := range ot.Counts {
		if n > t.Counts[v] {
			t.Counts[v] = n
		}
	}
	for v, err := range ot.failed {
		if _, ok := t.failed[v]; !ok {
			t.failed[v] = err
		}
	}
}

// FnEnter implements irexec.Tracer.
func (t *Tracer) FnEnter(fr *irexec.Frame) {}

// FnExit implements irexec.Tracer.
func (t *Tracer) FnExit(fr *irexec.Frame, ret *ir.Value, rets []uint32) {}

// RawCall is varargs' one action, on an OpCallExtRaw. Its code lies far
// from the small codes regsave defines, so varargs can ride regsave's
// replay (regsave.Tracer.Rider), which passes it the codes it does not
// define.
const RawCall irexec.Action = 0x80

// Observes implements irexec.Observer: the raw-call action on every
// OpCallExtRaw, Skip everywhere else.
func (t *Tracer) Observes(f *ir.Func) irexec.Actions { return rawCalls{} }

// rawCalls is varargs' actions, the same for every function.
type rawCalls struct{}

func (rawCalls) Exec(v *ir.Value) (irexec.Action, uint32) {
	if v.Op == ir.OpCallExtRaw {
		return RawCall, 0
	}
	return irexec.Skip, 0
}

func (rawCalls) Phi(phi, in *ir.Value) (irexec.Action, uint32) { return irexec.Skip, 0 }

// Act watches raw variadic calls and derives their exact signatures.
func (t *Tracer) Act(fr *irexec.Frame, s *irexec.Site, args []uint32, res uint32) {
	v := s.V
	if s.Act != RawCall && (s.Act != irexec.Generic || v.Op != ir.OpCallExtRaw) {
		return
	}
	sig, ok := extdb.Lookup(v.Sym)
	if !ok {
		t.failed[v] = fmt.Errorf("external %q not in database", v.Sym)
		return
	}
	count := sig.Params
	for _, eff := range sig.Effects {
		if eff.Kind != extdb.FormatStr {
			continue
		}
		// The format string is fixed argument eff.A; arguments live on the
		// emulated stack at the call's ESP.
		fmtAddr, err := fr.Mem.Load(args[0]+uint32(4*eff.A), 4)
		if err != nil {
			t.failed[v] = err
			return
		}
		format, err := fr.Mem.CString(fmtAddr)
		if err != nil {
			t.failed[v] = err
			return
		}
		count = sig.Params + machine.CountPrintfArgs(format)
	}
	if count > t.Counts[v] {
		t.Counts[v] = count
	}
}

// Apply rewrites every raw call the tracer observed into an explicit-argument
// call (loads from the emulated stack inserted before the call). A raw site
// without a derived count is an error: when the tracer recorded why the
// count could not be derived (unknown extern, unreadable format string),
// that cause is reported; otherwise the site was never observed, which
// means incomplete coverage.
func Apply(mod *ir.Module, t *Tracer) error {
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				v := b.Insts[i]
				if v.Op != ir.OpCallExtRaw {
					continue
				}
				n, ok := t.Counts[v]
				if !ok {
					if err := t.failed[v]; err != nil {
						return fmt.Errorf("varargs: %s: raw call to %s at %s: %w",
							f.Name, v.Sym, v, err)
					}
					return fmt.Errorf("varargs: %s: raw call to %s at %s never observed",
						f.Name, v.Sym, v)
				}
				sp := v.Args[0]
				var loads []*ir.Value
				var args []*ir.Value
				for j := 0; j < n; j++ {
					addr := sp
					if j > 0 {
						k := f.NewValue(ir.OpConst)
						k.Const = int32(4 * j)
						k.Block = b
						add := f.NewValue(ir.OpAdd, sp, k)
						add.Block = b
						loads = append(loads, k, add)
						addr = add
					}
					ld := f.NewValue(ir.OpLoad, addr)
					ld.Size = 4
					ld.Block = b
					loads = append(loads, ld)
					args = append(args, ld)
				}
				v.Op = ir.OpCallExt
				v.Args = args
				// Splice the loads in before the call.
				b.Insts = append(b.Insts[:i], append(loads, b.Insts[i:]...)...)
				i += len(loads)
			}
		}
	}
	return ir.Verify(mod)
}
