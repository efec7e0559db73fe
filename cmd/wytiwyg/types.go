package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wytiwyg/internal/core"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/serve"
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
	pf := addProgramFlags(fs, false)
	jsonOut := fs.Bool("json", false, "machine-readable JSON output")
	truth := fs.Bool("truth", false, "print the compiler's declared types and the precision/recall score")
	jobs := fs.Int("j", 0, "refinement worker pool size (0 = one per CPU)")
	fs.Parse(args)

	if !pf.named() {
		fs.Usage()
		return 2
	}
	job, err := pf.job(serve.KindLint, "")
	if err != nil {
		fail("%v", err)
	}
	job.Types = true
	img, inputs, _, err := job.Build()
	if err != nil {
		fail("%v", err)
	}
	// The cached front door (RecoverLayout) returns only the layout and
	// report; the typed frames need the full refined pipeline.
	opts := job.Options()
	opts.Jobs = *jobs
	p, err := core.LiftBinaryOpts(img, inputs, opts)
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
		}{Program: pf.name(job)}
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
