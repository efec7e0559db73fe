package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/refcache"
	"wytiwyg/internal/serve"
)

// The lint subcommand: run the pipeline through refinement on one or more
// programs and print the static verification report instead of
// recompiling. Exit status 1 means at least one proven violation (Error).

func lintMain(args []string) int {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	pf := addProgramFlags(fs, true)
	all := fs.Bool("all", false, "lint every built-in benchmark")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output")
	jobs := fs.Int("j", 0, "refinement worker pool size (0 = one per CPU)")
	cacheOn := fs.Bool("cache", false, "memoize refinement results in the on-disk cache")
	cacheDir := fs.String("cache-dir", "", "cache directory (implies -cache)")
	fs.Parse(args)
	cache := openCache(*cacheOn, *cacheDir)

	var targets []*serve.Job
	switch {
	case *all && pf.named():
		fail("-all is exclusive with -src and -bench")
	case *all:
		for _, p := range progs.All {
			pf.bench = p.Name
			job, err := pf.job(serve.KindLint, "")
			if err != nil {
				fail("%v", err)
			}
			targets = append(targets, job)
		}
	case pf.named():
		job, err := pf.job(serve.KindLint, "")
		if err != nil {
			fail("%v", err)
		}
		targets = append(targets, job)
	default:
		fs.Usage()
		return 2
	}

	type jsonEntry struct {
		Program  string          `json:"program"`
		Report   json.RawMessage `json:"report"`
		Degraded []degradedFn    `json:"degraded,omitempty"`
	}
	var entries []jsonEntry
	errors := 0
	for _, job := range targets {
		name := pf.name(job)
		rep, err := lintOne(job, *jobs, cache)
		if err != nil {
			fail("%s: %v", name, err)
		}
		errors += rep.Errors()
		degraded := degradedFns(rep)
		if *jsonOut {
			raw, err := rep.JSON()
			if err != nil {
				fail("encode report: %v", err)
			}
			entries = append(entries, jsonEntry{Program: name, Report: raw, Degraded: degraded})
			continue
		}
		if len(targets) > 1 {
			fmt.Printf("== %s\n", name)
		}
		fmt.Print(rep.String())
		for _, d := range degraded {
			fmt.Printf("degraded: %s: %s\n", d.Func, d.Reason)
		}
	}
	if *jsonOut {
		out, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			fail("encode: %v", err)
		}
		fmt.Println(string(out))
	} else if cache != nil {
		fmt.Printf("cache: %s (%s)\n", cache.Stats(), cache.Dir())
	}
	if errors > 0 {
		return 1
	}
	return 0
}

// degradedFn is one trap-stubbed function surfaced in lint output.
type degradedFn struct {
	Func   string `json:"func"`
	Reason string `json:"reason"`
}

// degradedFns extracts the degradations from a report's pipeline warnings.
// Reading them back out of the report (rather than Pipeline.Degraded) keeps
// cache-served runs — which carry only the layout and the report — accurate.
func degradedFns(rep *analysis.Report) []degradedFn {
	var out []degradedFn
	for _, d := range rep.Diags {
		if d.Check == "pipeline" && strings.Contains(d.Msg, "degraded to a trap stub") {
			out = append(out, degradedFn{Func: d.Func, Reason: d.Msg})
		}
	}
	return out
}

// lintOne builds, lifts and refines one program and returns the
// verification report. With a cache, an unchanged program is
// served from its recorded entry without re-running the pipeline.
func lintOne(job *serve.Job, jobs int, cache *refcache.Cache) (*analysis.Report, error) {
	img, inputs, _, err := job.Build()
	if err != nil {
		return nil, err
	}
	opts := job.Options()
	opts.Jobs, opts.Cache = jobs, cache
	p, err := core.RecoverLayout(img, inputs, opts)
	if err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	p.Report.Sort()
	return p.Report, nil
}
