package main

// The submit subcommand: the daemon's client. It sends one job to a
// running `wytiwyg serve` and prints the response; -local runs the
// identical job in-process instead (no daemon needed), producing a
// byte-identical payload — the CI smoke test pins that equivalence.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wytiwyg/internal/serve"
)

func submitMain(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", defaultSocket(), "daemon address: unix:/path/to.sock or host:port")
	kind := fs.String("kind", "recompile", "job kind: lift, lint, recompile")
	pf := addProgramFlags(fs, true)
	lintMode := fs.String("lint", "", "verification mode: warn, fail")
	local := fs.Bool("local", false, "run the job in-process instead of contacting a daemon")
	jobs := fs.Int("j", 0, "with -local: refinement worker pool size (0 = one per CPU)")
	cacheOn := fs.Bool("cache", false, "with -local: memoize results in the on-disk cache")
	cacheDir := fs.String("cache-dir", "", "with -local: cache directory (implies -cache)")
	jsonOut := fs.Bool("json", false, "print the payload as JSON on stdout (stats still go to stderr)")
	statsFlag := fs.Bool("stats", false, "print the daemon's counter snapshot and exit")
	ping := fs.Bool("ping", false, "check the daemon is up and exit")
	shutdown := fs.Bool("shutdown", false, "ask the daemon to drain and exit")
	fs.Parse(args)

	if *ping || *statsFlag || *shutdown {
		return controlMain(*addr, *ping, *statsFlag, *shutdown)
	}

	job, err := pf.job(*kind, *lintMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
		return 1
	}

	var resp *serve.Response
	if *local {
		r := &serve.Runner{Jobs: *jobs, Cache: openCache(*cacheOn, *cacheDir)}
		pay, _, err := r.Run(job)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
			return 1
		}
		resp = &serve.Response{Payload: pay}
	} else {
		resp, err = serve.Dial(*addr).Submit(job)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
			return 1
		}
		if resp.Error != "" {
			fmt.Fprintf(os.Stderr, "wytiwyg submit: daemon: %s\n", resp.Error)
			return 1
		}
	}
	printStats(&resp.Stats, *local)
	if err := printPayload(resp.Payload, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
		return 1
	}
	if resp.Payload.Kind == serve.KindRecompile && !resp.Payload.Match {
		return 1
	}
	return 0
}

// controlMain handles the daemon-control flags (-ping, -stats,
// -shutdown), in that order of precedence.
func controlMain(addr string, ping, stats, shutdown bool) int {
	c := serve.Dial(addr)
	switch {
	case ping:
		if err := c.Health(); err != nil {
			fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
			return 1
		}
		fmt.Println("ok")
	case stats:
		st, err := c.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	case shutdown:
		if err := c.Shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "wytiwyg submit: %v\n", err)
			return 1
		}
		fmt.Println("draining")
	}
	return 0
}

// printPayload renders the deterministic half of a response on stdout.
// The output is a pure function of the payload — the CI smoke test
// byte-compares a daemon submission against a -local run.
func printPayload(p *serve.Payload, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	fmt.Printf("%s %s: %d function(s) recovered\n", p.Kind, p.Program, p.Funcs)
	for _, line := range p.Layout {
		fmt.Printf("  %s\n", line)
	}
	for _, d := range p.Degraded {
		fmt.Printf("degraded: %s\n", d)
	}
	for _, d := range p.Diags {
		fmt.Printf("  %s\n", d)
	}
	fmt.Printf("lint: %d error(s), %d warning(s)\n", p.Errors, p.Warnings)
	if p.Kind == serve.KindRecompile {
		status := "MATCH"
		if !p.Match {
			status = "MISMATCH"
		}
		fmt.Printf("recovered binary: %d instructions, code digest %s\n", p.CodeLen, p.CodeDigest)
		fmt.Printf("recovered run: exit=%d cycles=%d  functionality: %s\n", p.ExitCode, p.Cycles, status)
	}
	return nil
}

// printStats renders the per-request statistics on stderr, keeping
// stdout a pure function of the payload.
func printStats(st *serve.Stats, local bool) {
	if local {
		fmt.Fprintln(os.Stderr, "stats: local run")
		return
	}
	how := "executed"
	if st.Warm {
		how = "warm"
	}
	fmt.Fprintf(os.Stderr, "stats: %s, queue depth %d, %.2fms\n",
		how, st.QueueDepth, st.TotalMs)
	for _, s := range st.Stages {
		fmt.Fprintf(os.Stderr, "  stage %-10s %8.2fms\n", s.Stage, s.Ms)
	}
}
