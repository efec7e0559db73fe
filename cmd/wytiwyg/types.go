package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
)

// The types subcommand: run the pipeline through refinement with the
// type-recovery stage on and print the typed frames — the closest thing
// the tool has to a decompiler view of the recovered program. With -truth
// the compiler's declared slot types are printed alongside and the typed
// precision/recall is reported.

// writeTypedTruth serializes the image's declared slot types to a JSON
// sidecar — the -emit-types artifact the accuracy evaluation consumes.
func writeTypedTruth(img *obj.Image, path string) error {
	if img.TypedTruth == nil {
		return fmt.Errorf("image carries no type ground truth (not built by minicc?)")
	}
	data, err := json.MarshalIndent(img.TypedTruth.Frames, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func typesMain(args []string) int {
	fs := flag.NewFlagSet("types", flag.ExitOnError)
	srcPath := fs.String("src", "", "mini-C source file to type")
	benchName := fs.String("bench", "", "built-in benchmark name")
	profName := fs.String("profile", "gcc12-O3", "compiler profile")
	inputsFlag := fs.String("inputs", "", "comma-separated integer inputs for tracing")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output")
	truth := fs.Bool("truth", false, "print the compiler's declared types and the precision/recall score")
	jobs := fs.Int("j", 0, "refinement worker pool size (0 = one per CPU)")
	fs.Parse(args)

	prof, ok := gen.ProfileByName(*profName)
	if !ok {
		fail("unknown profile %q", *profName)
	}

	var name, src string
	var inputs []machine.Input
	switch {
	case *benchName != "":
		p, ok := progs.ByName(*benchName)
		if !ok {
			fail("unknown benchmark %q", *benchName)
		}
		name, src, inputs = p.Name, p.Src, p.Inputs()
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			fail("read source: %v", err)
		}
		name, src = *srcPath, string(data)
	default:
		fs.Usage()
		return 2
	}
	if *inputsFlag != "" {
		inputs = machineInputs(*inputsFlag)
	}

	img, err := gen.Build(src, prof, "input")
	if err != nil {
		fail("compile: %v", err)
	}
	// The cached front door (RecoverLayout) returns only the layout and
	// report; the typed frames need the full refined pipeline.
	p, err := core.LiftBinaryOpts(img, inputs,
		core.Options{Jobs: *jobs, Lint: core.LintWarn, Types: true})
	if err != nil {
		fail("lift: %v", err)
	}
	if err := p.Refine(); err != nil {
		fail("refine: %v", err)
	}

	if *jsonOut {
		out := struct {
			Program   string          `json:"program"`
			Report    json.RawMessage `json:"report"`
			Precision *float64        `json:"precision,omitempty"`
			Recall    *float64        `json:"recall,omitempty"`
		}{Program: name}
		raw, err := p.TypeReport.JSON()
		if err != nil {
			fail("encode report: %v", err)
		}
		out.Report = raw
		if *truth && img.TypedTruth != nil {
			acc := layout.CompareTyped(img.TypedTruth, p.Typed)
			pr, rc := acc.Precision(), acc.Recall()
			out.Precision, out.Recall = &pr, &rc
		}
		enc, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fail("encode: %v", err)
		}
		fmt.Println(string(enc))
		return 0
	}

	fmt.Print(p.TypeReport.String())
	if *truth {
		if img.TypedTruth == nil {
			fail("image carries no type ground truth")
		}
		fmt.Println("compiler ground truth:")
		for _, fn := range img.TypedTruth.FuncNames() {
			fr := img.TypedTruth.Frame(fn)
			if len(fr.Vars) == 0 || p.Mod.FuncByName(fn) == nil {
				continue
			}
			fmt.Printf("func %s:\n", fn)
			for _, v := range fr.Vars {
				fmt.Printf("  %s@[%d,%d): %s\n", v.Name, v.Offset, v.Offset+int32(v.Size), v.Type)
			}
		}
		acc := layout.CompareTyped(img.TypedTruth, p.Typed)
		fmt.Printf("typed accuracy: %d claim(s) on %d truth slot(s), precision %.3f recall %.3f\n",
			acc.Claims, acc.TruthSlots, acc.Precision(), acc.Recall())
	}
	return 0
}
