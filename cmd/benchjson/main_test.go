package main

import (
	"fmt"
	"strings"
	"testing"
)

// metrics renders one benchmark entry with the given sample count.
func metrics(ns string, samples int) string {
	return fmt.Sprintf(`{"ns_per_op": %s, "mean_ns_per_op": %s, "samples": %d, "allocs_per_op": 0, "iterations": 1000}`,
		ns, ns, samples)
}

// current renders a "current" section holding the required benchmarks.
func current(samples int) string {
	return `{"BenchmarkStep": ` + metrics("4.5", samples) +
		`, "BenchmarkRun": ` + metrics("2.4", samples) +
		`, "BenchmarkRunBlockHook": ` + metrics("3.9", samples) + `}`
}

// TestCheckData runs -check's validation over accepted and rejected
// artifacts; a section the tool no longer writes is rejected, so it
// cannot linger in a published file.
func TestCheckData(t *testing.T) {
	cases := []struct {
		name, artifact string
		wantErr        string // substring of the error; "" accepts
	}{
		{"smoke", `{"mode": "smoke", "current": ` + current(1) + `}`, ""},
		{"full with speedup", `{"mode": "full", "baseline": ` + current(3) +
			`, "current": ` + current(3) + `, "speedup": {"BenchmarkStep": 1, "BenchmarkRun": 1}}`, ""},
		{"deleted vsa section", `{"mode": "full", "current": ` + current(3) +
			`, "vsa": [{"program": "astar"}]}`, `unknown field "vsa"`},
		{"deleted guards section", `{"mode": "full", "current": ` + current(3) +
			`, "guards": []}`, `unknown field "guards"`},
		{"serve-only artifact", `{"serve": [{"program": "mcf"}]}`, `unknown field "serve"`},
		{"unknown metric field", `{"mode": "smoke", "current": {"BenchmarkStep": {"ns_per_op": 1, "samples": 1, "iterations": 1, "p99": 2}}}`,
			`unknown field "p99"`},
		{"not JSON", `{"mode": `, "not a valid artifact"},
		{"missing mode", `{"current": ` + current(1) + `}`, `unknown "mode"`},
		{"missing required benchmark", `{"mode": "smoke", "current": {"BenchmarkStep": ` + metrics("4.5", 1) + `}}`,
			"missing BenchmarkRun"},
		{"missing the tracer's benchmark", `{"mode": "smoke", "current": {"BenchmarkStep": ` + metrics("4.5", 1) +
			`, "BenchmarkRun": ` + metrics("2.4", 1) + `}}`, "missing BenchmarkRunBlockHook"},
		{"full with too few samples", `{"mode": "full", "current": ` + current(2) + `}`, "only 2 samples"},
		{"speedup in smoke mode", `{"mode": "smoke", "baseline": ` + current(1) +
			`, "current": ` + current(1) + `, "speedup": {"BenchmarkStep": 1}}`, "smoke ratios are noise"},
		{"speedup mismatch", `{"mode": "full", "baseline": ` + current(3) +
			`, "current": ` + current(3) + `, "speedup": {"BenchmarkStep": 2}}`, "does not match"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkData([]byte(c.artifact))
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}
