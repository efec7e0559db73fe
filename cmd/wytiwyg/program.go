package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wytiwyg/internal/serve"
)

// programFlags are the flags that name a program and the inputs it is
// traced under. Every subcommand that runs the pipeline registers them
// with addProgramFlags and turns them into a serve.Job, so a program is
// validated (Job.Normalize) and resolved (Job.Build) the same way on the
// command line as in the daemon.
type programFlags struct {
	src, bench, profile, inputs string
	vsa, types, static          bool
}

// addProgramFlags registers -src, -bench, -profile and -inputs on fs and,
// with stages, the optional analysis stages -vsa, -types and
// -static-recover.
func addProgramFlags(fs *flag.FlagSet, stages bool) *programFlags {
	pf := &programFlags{}
	fs.StringVar(&pf.src, "src", "", "mini-C source file (exclusive with -bench)")
	fs.StringVar(&pf.bench, "bench", "", "built-in benchmark name (exclusive with -src)")
	fs.StringVar(&pf.profile, "profile", "gcc12-O3", "compiler profile: gcc12-O3, gcc12-O0, clang16-O3, gcc44-O3")
	fs.StringVar(&pf.inputs, "inputs", "", "comma-separated integer inputs for tracing and validation (at most 64)")
	if stages {
		fs.BoolVar(&pf.vsa, "vsa", false, "run the value-set analysis stage: verify the layout against statically provable access offsets")
		fs.BoolVar(&pf.types, "types", false, "run the type-recovery stage: infer a type for every recovered frame slot")
		fs.BoolVar(&pf.static, "static-recover", false, "statically recover untraced functions, admitting only VSA-verified layouts")
	}
	return pf
}

// named reports whether -src or -bench was given.
func (pf *programFlags) named() bool {
	return pf.src != "" || pf.bench != ""
}

// job reads the -src file, fills a job of the given kind and lint mode
// ("" for the default) from the flags, and normalizes it.
func (pf *programFlags) job(kind, lint string) (*serve.Job, error) {
	job := &serve.Job{
		Kind:          kind,
		Bench:         pf.bench,
		Profile:       pf.profile,
		Lint:          lint,
		VSA:           pf.vsa,
		Types:         pf.types,
		StaticRecover: pf.static,
	}
	if pf.src != "" {
		data, err := os.ReadFile(pf.src)
		if err != nil {
			return nil, fmt.Errorf("read source: %w", err)
		}
		job.Source = string(data)
	}
	if pf.inputs != "" {
		var err error
		if job.Inputs, err = parseInputs(pf.inputs); err != nil {
			return nil, err
		}
	}
	if err := job.Normalize(); err != nil {
		return nil, err
	}
	return job, nil
}

// name is how output refers to a job's program: the benchmark name, or
// the -src path.
func (pf *programFlags) name(job *serve.Job) string {
	if job.Bench != "" {
		return job.Bench
	}
	return pf.src
}

// parseInputs parses a comma-separated -inputs value into integers.
func parseInputs(s string) ([]int32, error) {
	var vs []int32
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad input %q", f)
		}
		vs = append(vs, int32(v))
	}
	return vs, nil
}
