package bench

import (
	"fmt"
	"io"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/codegen"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/opt"
)

// AblationRow measures which parts of the stack contribute the speedup the
// paper attributes to fine-grained symbolization (§6.2's analysis): the
// same refined module compiled with optimizer passes selectively disabled,
// and with each optional static analysis enabled on top of the full
// pipeline.
type AblationRow struct {
	Program string // benchmark name
	Config  string // compiler profile name
	Native  uint64 // input binary's cycles
	// Cycles per variant.
	NoSym      uint64 // unsymbolized recompile (full optimizer)
	SymNoMem   uint64 // symbolized, but no mem2reg/forwarding (alias info unused)
	SymNoLICM  uint64 // symbolized, no loop-invariant motion
	StaticOnly uint64 // static (SecondWrite-like) symbolization, 0 if failed
	// Full is the symbolized run with the full optimizer (sym-full); VSA,
	// Types and Static are the same run with core.Options.VSA, Types or
	// StaticRecover on and the analysis' consumer wired in (the
	// optimizer's alias oracle, its typed slot splitter, cold-code
	// admission).
	Full, VSA, Types, Static Outcome
}

// Outcome is one ablation run's exact, deterministic result.
type Outcome struct {
	Cycles   uint64 // recompiled binary's cycles on the ref input
	Promoted int    // stack slots the optimizer promoted to registers
	Admitted int    // statically recovered cold functions admitted
}

// Ablation runs the variants for one benchmark/configuration.
func Ablation(p progs.Program, prof gen.Profile) (*AblationRow, error) {
	row := &AblationRow{Program: p.Name, Config: prof.Name}
	img, err := gen.Build(p.Src, prof, p.Name)
	if err != nil {
		return nil, err
	}
	nat, err := measure(img, p.Ref)
	if err != nil {
		return nil, err
	}
	row.Native = nat.Cycles

	// run recompiles one variant: through the pipeline's back end when o
	// is nil, or with the optimizer passes o disables (the sym-no-mem and
	// sym-no-licm columns vary that stage on purpose).
	run := func(refine bool, copts core.Options, o *opt.PipelineOpts) (Outcome, error) {
		copts.Jobs = 1
		pl, err := core.LiftBinaryOpts(img, p.Inputs(), copts)
		if err != nil {
			return Outcome{}, err
		}
		if refine {
			if err := pl.Refine(); err != nil {
				return Outcome{}, err
			}
		}
		var res Outcome
		for _, st := range pl.ColdStats {
			if st.Admitted {
				res.Admitted++
			}
		}
		var out *obj.Image
		var promoted *layout.Program
		if o == nil {
			out, promoted, err = pl.Recompile(p.Name)
		} else {
			promoted = opt.PipelineWith(pl.Mod, *o)
			out, err = codegen.Compile(pl.Mod, p.Name)
		}
		if err != nil {
			return Outcome{}, err
		}
		for _, f := range promoted.Frames {
			res.Promoted += len(f.Vars)
		}
		m, err := measure(out, p.Ref)
		if err != nil {
			return Outcome{}, err
		}
		if m.Output != nat.Output || m.ExitCode != nat.ExitCode {
			return Outcome{}, fmt.Errorf("ablation: %s: behaviour mismatch", p.Name)
		}
		res.Cycles = m.Cycles
		return res, nil
	}
	for _, v := range []struct {
		dst   *Outcome
		copts core.Options
	}{
		{&row.Full, core.Options{}},
		{&row.VSA, core.Options{VSA: true}},
		{&row.Types, core.Options{Types: true}},
		{&row.Static, core.Options{StaticRecover: true}},
	} {
		if *v.dst, err = run(true, v.copts, nil); err != nil {
			return nil, err
		}
	}
	for _, v := range []struct {
		dst    *uint64
		refine bool
		o      *opt.PipelineOpts
	}{
		{&row.NoSym, false, nil},
		{&row.SymNoMem, true, &opt.PipelineOpts{NoMem2Reg: true, NoMemOpt: true}},
		{&row.SymNoLICM, true, &opt.PipelineOpts{NoLICM: true}},
	} {
		res, err := run(v.refine, core.Options{}, v.o)
		if err != nil {
			return nil, err
		}
		*v.dst = res.Cycles
	}
	if sw := runStatic(img, p); !sw.Failed {
		row.StaticOnly = sw.Cycles
	}
	return row, nil
}

// AblationReport renders the ablation tables: normalized runtimes per
// optimizer variant, then the exact outcome of each optional analysis.
func AblationReport(w io.Writer, rows []*AblationRow) {
	fmt.Fprintln(w, "Ablation: normalized runtime vs the input binary (lower is better)")
	fmt.Fprintln(w, "  no-sym      : recompiled without symbolization (BinRec baseline)")
	fmt.Fprintln(w, "  sym-no-mem  : symbolized, but mem2reg/store-forwarding disabled")
	fmt.Fprintln(w, "  sym-no-licm : symbolized, loop-invariant motion disabled")
	fmt.Fprintln(w, "  sym-full    : the complete WYTIWYG pipeline")
	fmt.Fprintln(w, "  static      : SecondWrite-like static symbolization (— on failure)")
	fmt.Fprintf(w, "%-12s %-10s %8s %12s %12s %9s %8s\n",
		"benchmark", "config", "no-sym", "sym-no-mem", "sym-no-licm", "sym-full", "static")
	rat := func(c uint64, n uint64) string {
		if c == 0 || n == 0 {
			return "—"
		}
		return fmt.Sprintf("%.2f", float64(c)/float64(n))
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %8s %12s %12s %9s %8s\n",
			r.Program, r.Config,
			rat(r.NoSym, r.Native), rat(r.SymNoMem, r.Native),
			rat(r.SymNoLICM, r.Native), rat(r.Full.Cycles, r.Native),
			rat(r.StaticOnly, r.Native))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Analysis consumers: exact cycles / promoted slots / admitted cold functions")
	fmt.Fprintln(w, "  sym-full : the complete pipeline, no optional analysis")
	fmt.Fprintln(w, "  +vsa     : sym-full with the VSA stage and the optimizer's alias oracle")
	fmt.Fprintln(w, "  +types   : sym-full with type recovery and typed slot splitting")
	fmt.Fprintln(w, "  +static  : sym-full with static cold-code recovery and admission")
	col := func(o Outcome) string { return fmt.Sprintf("%d/%d/%d", o.Cycles, o.Promoted, o.Admitted) }
	fmt.Fprintf(w, "%-12s %-10s %18s %18s %18s %18s\n",
		"benchmark", "config", "sym-full", "+vsa", "+types", "+static")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %18s %18s %18s %18s\n",
			r.Program, r.Config, col(r.Full), col(r.VSA), col(r.Types), col(r.Static))
	}
}
