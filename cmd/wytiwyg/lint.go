package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"wytiwyg/internal/analysis"
	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
)

// The lint subcommand: run the pipeline through refinement on one or more
// programs and print the static verification report instead of
// recompiling. Exit status 1 means at least one proven violation (Error).

// lintTarget is one program to audit.
type lintTarget struct {
	name   string
	src    string
	inputs []machine.Input
}

func lintMain(args []string) int {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	srcPath := fs.String("src", "", "mini-C source file to lint")
	benchName := fs.String("bench", "", "built-in benchmark name")
	all := fs.Bool("all", false, "lint every built-in benchmark")
	profName := fs.String("profile", "gcc12-O3", "compiler profile")
	inputsFlag := fs.String("inputs", "", "comma-separated integer inputs for tracing")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output")
	vsaFlag := fs.Bool("vsa", false, "add the value-set analysis verifier's findings to the report")
	typesFlag := fs.Bool("types", false, "add the type-recovery stage's typed-conflict findings to the report")
	staticFlag := fs.Bool("static-recover", false, "statically recover untraced functions before linting")
	jobs := fs.Int("j", 0, "refinement worker pool size (0 = one per CPU)")
	cacheOn := fs.Bool("cache", false, "memoize refinement results in the on-disk cache")
	cacheDir := fs.String("cache-dir", "", "cache directory (implies -cache)")
	fs.Parse(args)
	cache := openCache(*cacheOn, *cacheDir)

	prof, ok := gen.ProfileByName(*profName)
	if !ok {
		fail("unknown profile %q", *profName)
	}

	var targets []lintTarget
	switch {
	case *all:
		for _, p := range progs.All {
			targets = append(targets, lintTarget{name: p.Name, src: p.Src, inputs: p.Inputs()})
		}
	case *benchName != "":
		p, ok := progs.ByName(*benchName)
		if !ok {
			fail("unknown benchmark %q", *benchName)
		}
		targets = append(targets, lintTarget{name: p.Name, src: p.Src, inputs: p.Inputs()})
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			fail("read source: %v", err)
		}
		targets = append(targets, lintTarget{name: *srcPath, src: string(data)})
	default:
		fs.Usage()
		return 2
	}
	if *inputsFlag != "" {
		inputs := machineInputs(*inputsFlag)
		for i := range targets {
			targets[i].inputs = inputs
		}
	}

	type jsonEntry struct {
		Program  string          `json:"program"`
		Report   json.RawMessage `json:"report"`
		Degraded []degradedFn    `json:"degraded,omitempty"`
	}
	var entries []jsonEntry
	errors := 0
	for _, tgt := range targets {
		rep, err := lintOne(tgt, prof,
			core.Options{Jobs: *jobs, Lint: core.LintWarn, Cache: cache, VSA: *vsaFlag,
				Types: *typesFlag, StaticRecover: *staticFlag})
		if err != nil {
			fail("%s: %v", tgt.name, err)
		}
		errors += rep.Errors()
		degraded := degradedFns(rep)
		if *jsonOut {
			raw, err := rep.JSON()
			if err != nil {
				fail("encode report: %v", err)
			}
			entries = append(entries, jsonEntry{Program: tgt.name, Report: raw, Degraded: degraded})
			continue
		}
		if len(targets) > 1 {
			fmt.Printf("== %s\n", tgt.name)
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

// lintOne builds, lifts and refines one program with linting enabled and
// returns the verification report. With a cache in the options, an
// unchanged program is served from its recorded entry without re-running
// the pipeline.
func lintOne(tgt lintTarget, prof gen.Profile, opts core.Options) (*analysis.Report, error) {
	img, err := gen.Build(tgt.src, prof, "input")
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	p, err := core.RecoverLayout(img, tgt.inputs, opts)
	if err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	p.Report.Sort()
	return p.Report, nil
}
