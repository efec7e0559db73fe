package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/isa"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/refcache"
)

// Runner executes jobs. The daemon wraps one Runner; `wytiwyg submit
// -local` runs the same code in-process — that sharing is what makes
// daemon payloads byte-identical to one-shot CLI payloads by
// construction, and the test suite additionally pins it.
type Runner struct {
	// Jobs bounds each pipeline's worker pool (0 = one per CPU). The
	// payload is worker-count independent (the determinism invariant), so
	// this only shapes latency.
	Jobs int
	// Cache, when non-nil, is the shared content-addressed store: program
	// entries memoize pipeline work across requests, and the daemon stores
	// whole response payloads under the job digest.
	Cache *refcache.Cache
	// Observer, when non-nil, receives every pipeline stage event of every
	// run (a test and benchmarking seam; it must be goroutine-safe).
	Observer func(core.StageEvent)
}

// Build compiles the job's program and returns the image, the resolved
// input set and the program's display name (the benchmark name, or
// "source" for inline source). It is the only place a program is
// resolved: the daemon, `submit -local` and every one-shot subcommand
// call it.
func (j *Job) Build() (*obj.Image, []machine.Input, string, error) {
	prof, ok := gen.ProfileByName(j.Profile)
	if !ok {
		return nil, nil, "", fmt.Errorf("serve: unknown profile %q", j.Profile)
	}
	src, name := j.Source, "source"
	var inputs []machine.Input
	if j.Bench != "" {
		p, ok := progs.ByName(j.Bench)
		if !ok {
			return nil, nil, "", fmt.Errorf("serve: unknown benchmark %q", j.Bench)
		}
		src, name = p.Src, p.Name
		inputs = p.Inputs()
	}
	if len(j.Inputs) > 0 {
		inputs = nil
		for _, v := range j.Inputs {
			inputs = append(inputs, machine.Input{Ints: []int32{v}})
		}
	}
	if len(inputs) == 0 {
		inputs = []machine.Input{{}}
	}
	img, err := gen.Build(src, prof, name)
	if err != nil {
		return nil, nil, "", fmt.Errorf("serve: compile: %w", err)
	}
	return img, inputs, name, nil
}

// Options maps a normalized job onto pipeline options. The job fixes
// what is computed; the caller sets how (Jobs, Cache, Observer).
func (j *Job) Options() core.Options {
	lint, _ := core.ParseLintMode(j.Lint) // Normalize validated it
	return core.Options{
		Lint:          lint,
		VSA:           j.VSA,
		Types:         j.Types,
		StaticRecover: j.StaticRecover,
	}
}

// Run executes one normalized job and returns its deterministic payload
// plus the pipeline's per-stage wall-clock costs.
func (r *Runner) Run(job *Job) (*Payload, []core.StageTime, error) {
	img, inputs, name, err := job.Build()
	if err != nil {
		return nil, nil, err
	}
	opts := job.Options()
	opts.Jobs, opts.Cache, opts.Observer = r.Jobs, r.Cache, r.Observer
	var p *core.Pipeline
	if job.Kind == KindRecompile {
		// Recompilation needs the refined IR, which a program-level cache
		// hit does not carry: run the whole pipeline.
		p, err = core.LiftBinaryOpts(img, inputs, opts)
		if err == nil {
			err = p.Refine()
		}
	} else {
		p, err = core.RecoverLayout(img, inputs, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	pay := &Payload{
		Digest:  job.Digest(),
		Kind:    job.Kind,
		Program: name,
	}
	for _, fn := range p.Recovered.FuncNames() {
		pay.Funcs++
		pay.Layout = append(pay.Layout, p.Recovered.Frame(fn).String())
	}
	if p.Report != nil {
		p.Report.Sort()
		pay.Errors = p.Report.Errors()
		pay.Warnings = p.Report.Count(analysis.Warn)
		if job.Kind != KindLift {
			for _, d := range p.Report.Diags {
				pay.Diags = append(pay.Diags, d.String())
			}
		}
	}
	if job.Kind == KindRecompile {
		if err := r.recompile(p, img, inputs, pay); err != nil {
			return nil, nil, err
		}
	}
	return pay, p.Times, nil
}

// recompile finishes a KindRecompile job: optimize, generate code, and
// validate the recovered binary against the original on the last input.
func (r *Runner) recompile(p *core.Pipeline, img *obj.Image, inputs []machine.Input, pay *Payload) error {
	degraded := make([]string, 0, len(p.Degraded))
	for fn := range p.Degraded {
		degraded = append(degraded, fmt.Sprintf("%s: %v", fn, p.Degraded[fn]))
	}
	sort.Strings(degraded)
	pay.Degraded = degraded

	out, _, err := p.Recompile("recovered")
	if err != nil {
		return fmt.Errorf("serve: recompile: %w", err)
	}
	sum := sha256.Sum256(isa.EncodeAll(out.Code))
	pay.CodeLen = len(out.Code)
	pay.CodeDigest = hex.EncodeToString(sum[:])

	last := inputs[len(inputs)-1]
	var nativeOut, recOut bytes.Buffer
	nat, err := machine.Execute(img, last, &nativeOut)
	if err != nil {
		return fmt.Errorf("serve: native run: %w", err)
	}
	rec, err := machine.Execute(out, last, &recOut)
	if err != nil {
		return fmt.Errorf("serve: recovered run: %w", err)
	}
	pay.ExitCode = rec.ExitCode
	pay.Cycles = rec.Cycles
	pay.Output = recOut.String()
	pay.Match = recOut.String() == nativeOut.String() && rec.ExitCode == nat.ExitCode
	return nil
}

// stageMs converts pipeline stage times into response form.
func stageMs(times []core.StageTime) []StageMs {
	out := make([]StageMs, 0, len(times))
	for _, st := range times {
		out = append(out, StageMs{Stage: st.Stage, Ms: roundMs(st.Elapsed)})
	}
	return out
}

// roundMs renders a duration as milliseconds with two decimals.
func roundMs(d time.Duration) float64 {
	return float64(d.Microseconds()/10) / 100
}
