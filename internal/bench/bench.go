// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§6) over the reproduction's SPEC-motif
// suite. For each benchmark and compiler configuration it measures, in
// deterministic emulator cycles,
//
//   - the input binary (the paper's baseline for Table 1's ratios),
//   - the BinRec-style recompilation without symbolization,
//   - the WYTIWYG recompilation (full refinement lifting + optimizer),
//   - the SecondWrite-style static recompilation (which may fail),
//
// verifies functionality (output equality — §6.1), and compares recovered
// stack layouts against the compiler's ground truth (§6.3 / Figure 7).
package bench

import (
	"bytes"
	"fmt"
	"math"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/staticsym"
	"wytiwyg/internal/symbolize"
)

// Configs are the Table 1 columns (compiler/optimization configurations).
var Configs = []gen.Profile{gen.GCC12O3, gen.GCC12O0, gen.Clang16O3, gen.GCC44O3}

// Measurement is one binary's run on the ref input.
type Measurement struct {
	Cycles   uint64 // cost-model cycles on the ref input
	ExitCode int32  // the run's exit status
	Output   string // captured program output
	// Failed marks systems that could not produce a binary (SecondWrite's
	// "—" cells); Reason says why.
	Failed bool
	Reason string // see Failed
}

// Row is one (program, config) cell group of Table 1.
type Row struct {
	Program string // benchmark name
	Config  string // compiler profile name

	Native Measurement // the input binary
	NoSym  Measurement // recompiled without symbolization
	Sym    Measurement // recompiled with WYTIWYG symbolization
	SW     Measurement // recompiled with the static (SecondWrite-like) symbolizer

	// Accuracy compares the WYTIWYG-recovered layout with ground truth
	// (only meaningful once per program; computed on every config).
	Accuracy layout.Accuracy
}

// Ratio helpers (normalized runtime relative to the input binary).
func ratio(m Measurement, base Measurement) float64 {
	if m.Failed || base.Cycles == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(base.Cycles)
}

// NoSymRatio is the Table 1 "no symbolize" cell.
func (r Row) NoSymRatio() float64 { return ratio(r.NoSym, r.Native) }

// SymRatio is the Table 1 "symbolize" cell.
func (r Row) SymRatio() float64 { return ratio(r.Sym, r.Native) }

// SWRatio is the Table 1 SecondWrite cell.
func (r Row) SWRatio() float64 { return ratio(r.SW, r.Native) }

// measure runs an image on the ref input.
func measure(img *obj.Image, input machine.Input) (Measurement, error) {
	var out bytes.Buffer
	res, err := machine.Execute(img, input, &out)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Cycles: res.Cycles, ExitCode: res.ExitCode, Output: out.String()}, nil
}

// Scaled returns a copy of a program with its ref input replaced (tests use
// smaller datasets than the full experiments).
func Scaled(p progs.Program, refScale int32) progs.Program {
	p.Ref = machine.Input{Ints: []int32{refScale}}
	return p
}

// RunProgram produces the row for one benchmark under one configuration.
func RunProgram(p progs.Program, prof gen.Profile) (*Row, error) {
	row := &Row{Program: p.Name, Config: prof.Name}
	img, err := gen.Build(p.Src, prof, p.Name+"-"+prof.Name)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: build: %w", p.Name, prof.Name, err)
	}
	row.Native, err = measure(img, p.Ref)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: native: %w", p.Name, prof.Name, err)
	}

	// BinRec baseline: lift, optimize, recompile — no symbolization.
	pl, err := core.LiftBinary(img, p.Inputs())
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: lift: %w", p.Name, prof.Name, err)
	}
	noSymImg, _, err := pl.Recompile(p.Name + "-nosym")
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: nosym codegen: %w", p.Name, prof.Name, err)
	}
	row.NoSym, err = measure(noSymImg, p.Ref)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: nosym run: %w", p.Name, prof.Name, err)
	}

	// WYTIWYG: full refinement lifting.
	pw, err := core.LiftBinary(img, p.Inputs())
	if err != nil {
		return nil, err
	}
	if err := pw.Refine(); err != nil {
		return nil, fmt.Errorf("bench: %s/%s: refine: %w", p.Name, prof.Name, err)
	}
	symImg, promoted, err := pw.Recompile(p.Name + "-sym")
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: sym codegen: %w", p.Name, prof.Name, err)
	}
	row.Sym, err = measure(symImg, p.Ref)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: sym run: %w", p.Name, prof.Name, err)
	}

	// Splitting accuracy (§6.3): the recovered layout vs ground truth,
	// restricted to lifted (traced) functions. "Recovered" counts the
	// objects that survive as frame memory plus the scalars mem2reg
	// promoted to registers; call-plumbing slots the optimizer proved dead
	// do not count, mirroring the paper's comparison against the final
	// recompiled binary's layout.
	recovered := symbolize.RecoveredLayout(pw.Mod)
	for _, name := range promoted.FuncNames() {
		pf := promoted.Frame(name)
		rf := recovered.Frame(name)
		if rf == nil {
			recovered.Add(pf)
			continue
		}
		rf.Vars = append(rf.Vars, pf.Vars...)
		rf.Sort()
	}
	truth := layout.NewProgram()
	for _, f := range pw.Mod.Funcs {
		if tf := img.Truth.Frame(f.Name); tf != nil {
			truth.Add(tf)
		}
	}
	row.Accuracy = layout.Compare(truth, recovered)

	// SecondWrite-like static recompilation.
	row.SW = runStatic(img, p)

	// Functionality (§6.1): every produced binary must match the input
	// binary's behaviour.
	if row.NoSym.Output != row.Native.Output || row.NoSym.ExitCode != row.Native.ExitCode {
		return nil, fmt.Errorf("bench: %s/%s: nosym functionality mismatch", p.Name, prof.Name)
	}
	if row.Sym.Output != row.Native.Output || row.Sym.ExitCode != row.Native.ExitCode {
		return nil, fmt.Errorf("bench: %s/%s: sym functionality mismatch", p.Name, prof.Name)
	}
	if !row.SW.Failed &&
		(row.SW.Output != row.Native.Output || row.SW.ExitCode != row.Native.ExitCode) {
		return nil, fmt.Errorf("bench: %s/%s: secondwrite functionality mismatch", p.Name, prof.Name)
	}
	return row, nil
}

// runStatic performs the SecondWrite-style static pipeline; failures are
// recorded, not fatal (they are the "—" cells).
func runStatic(img *obj.Image, p progs.Program) Measurement {
	ps, err := core.LiftBinary(img, p.Inputs())
	if err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	if err := ps.RefineRegSave(); err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	if err := ps.RefineVarArgs(); err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	if err := ps.RefineStackRef(); err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	if _, err := staticsym.Apply(ps.Mod, ps.SPOffsets); err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	swImg, _, err := ps.Recompile(p.Name + "-sw")
	if err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	m, err := measure(swImg, p.Ref)
	if err != nil {
		return Measurement{Failed: true, Reason: err.Error()}
	}
	return m
}

// Suite runs every benchmark under every configuration. scale < 0 keeps the
// full ref inputs; otherwise it overrides the ref scale (for quick runs).
func Suite(programs []progs.Program, refScale int32) ([]*Row, error) {
	var rows []*Row
	for _, p := range programs {
		if refScale > 0 {
			p = Scaled(p, refScale)
		}
		for _, prof := range Configs {
			row, err := RunProgram(p, prof)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Geomean computes the geometric mean of positive ratios.
func Geomean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(n))
}
