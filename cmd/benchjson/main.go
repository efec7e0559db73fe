// Command benchjson converts `go test -bench` output (on stdin) into a JSON
// artifact tracking the interpreter/emulator micro-benchmarks. The output
// file keeps two sections: "baseline", written once (or refreshed with
// -set-baseline) to pin the pre-optimization numbers, and "current",
// overwritten on every run.
//
// Sampling is first-class: feed the tool a multi-sample run (`go test
// -bench=. -count=5`) and each benchmark's entry reports the minimum,
// mean, standard deviation and maximum across samples plus the sample
// count. The minimum is the headline ns_per_op — on a noisy shared box,
// scheduler interference only ever adds time, so the smallest sample is
// the least-contaminated estimate of the true cost (the same reasoning as
// Python's timeit). The mean and standard deviation are reported alongside
// so the spread is visible rather than hidden.
//
// The artifact records which protocol produced it in its "mode" field:
//
//   - "full" (-mode full): every benchmark must carry at least 3 samples;
//     the tool refuses to publish otherwise. Only full artifacts get a
//     "speedup" section (baseline ns_per_op / current ns_per_op).
//   - "smoke" (-mode smoke, the default): any sample count is accepted —
//     CI's 1-iteration crash check — but the speedup section is dropped:
//     1-iteration timings are noise and ratios computed from them are
//     disinformation.
//
// With -check the tool instead validates an existing artifact (structure,
// required benchmarks, sample-count/mode consistency) and exits non-zero
// on malformed or missing fields — an unknown top-level section included —
// so CI fails instead of publishing junk.
//
// Usage:
//
//	go test -bench=. -count=5 ./... | benchjson -mode full -o BENCH_interp.json
//	go test -bench=. -benchtime=1x ./... | benchjson -mode smoke -o /tmp/smoke.json
//	benchjson -check -o BENCH_interp.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minSamples is the sample count below which timing ratios are considered
// noise: full-mode artifacts require it, and the checker rejects speedup
// sections computed from fewer current-side samples.
const minSamples = 3

// requiredBenchmarks must be present in a valid artifact's current
// section; they are the numbers the project's acceptance criteria track.
var requiredBenchmarks = []string{"BenchmarkStep", "BenchmarkRun"}

// Metrics is one benchmark's aggregate over all samples of a run.
type Metrics struct {
	NsPerOp       float64 `json:"ns_per_op"`                  // minimum across samples (least scheduler-contaminated)
	MeanNsPerOp   float64 `json:"mean_ns_per_op,omitempty"`   // mean across samples
	StddevNsPerOp float64 `json:"stddev_ns_per_op,omitempty"` // sample standard deviation (0 for a single sample)
	MaxNsPerOp    float64 `json:"max_ns_per_op,omitempty"`    // maximum across samples
	Samples       int     `json:"samples"`                    // number of samples aggregated
	BytesPerOp    int64   `json:"bytes_per_op,omitempty"`     // heap bytes per iteration (fastest sample)
	AllocsPerOp   int64   `json:"allocs_per_op"`              // allocations per iteration (fastest sample)
	Iterations    int64   `json:"iterations,omitempty"`       // iteration count of the fastest sample
}

// File is the on-disk artifact layout.
type File struct {
	Mode     string             `json:"mode,omitempty"`     // "full" (≥3 samples, speedups) or "smoke" (crash check, no speedups)
	Baseline map[string]Metrics `json:"baseline,omitempty"` // pinned pre-optimization numbers
	Current  map[string]Metrics `json:"current"`            // latest run's numbers
	Speedup  map[string]float64 `json:"speedup,omitempty"`  // baseline/current per benchmark; full mode only
}

// readArtifact loads an existing artifact, or an empty one if absent.
func readArtifact(path string) (*File, error) {
	var f File
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("existing %s: %v", path, err)
		}
	}
	return &f, nil
}

// writeArtifact marshals and writes the artifact, logging what was merged.
func writeArtifact(path string, f *File, what string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: %s -> %s\n", what, path)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_interp.json", "output JSON file (merged if it exists)")
	mode := flag.String("mode", "smoke", `sampling protocol: "full" requires ≥3 samples per benchmark and computes speedups; "smoke" accepts anything and suppresses them`)
	setBaseline := flag.Bool("set-baseline", false, "record this run as the baseline instead of the current numbers")
	check := flag.Bool("check", false, "validate the artifact named by -o instead of writing; exit non-zero on malformed or missing fields")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *check {
		if err := checkArtifact(*out); err != nil {
			fail(fmt.Errorf("%s: %v", *out, err))
		}
		fmt.Printf("benchjson: %s is well-formed\n", *out)
		return
	}

	if *mode != "full" && *mode != "smoke" {
		fail(fmt.Errorf("unknown -mode %q (want full or smoke)", *mode))
	}
	parsed, err := parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	if len(parsed) == 0 {
		fail(fmt.Errorf("no benchmark lines on stdin"))
	}
	if *mode == "full" {
		var short []string
		for name, m := range parsed {
			if m.Samples < minSamples {
				short = append(short, fmt.Sprintf("%s (%d)", name, m.Samples))
			}
		}
		if len(short) > 0 {
			sort.Strings(short)
			fail(fmt.Errorf("full mode requires ≥%d samples per benchmark; short: %s — run with -count=%d or use -mode smoke",
				minSamples, strings.Join(short, ", "), minSamples))
		}
	}

	f, err := readArtifact(*out)
	if err != nil {
		fail(err)
	}
	if *setBaseline {
		f.Baseline = parsed
	} else {
		f.Current = parsed
	}
	f.Mode = *mode
	// Speedups only from a full-protocol run: ratios of 1-iteration smoke
	// samples are noise, and publishing them as "speedup" is how the old
	// artifact ended up claiming 0.01×–0.19× regressions that were pure
	// measurement error.
	f.Speedup = nil
	if *mode == "full" && len(f.Baseline) > 0 && len(f.Current) > 0 {
		f.Speedup = make(map[string]float64)
		for name, base := range f.Baseline {
			if cur, ok := f.Current[name]; ok && cur.NsPerOp > 0 && cur.Samples >= minSamples {
				f.Speedup[name] = round2(base.NsPerOp / cur.NsPerOp)
			}
		}
	}
	if err := writeArtifact(*out, f, fmt.Sprintf("%d benchmarks (%s mode)", len(parsed), *mode)); err != nil {
		fail(err)
	}
}

// checkArtifact validates an artifact's structure: CI runs this so a junk
// or truncated file fails the build instead of being published.
func checkArtifact(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return checkData(data)
}

// checkData validates one artifact's bytes (see checkArtifact).
func checkData(data []byte) error {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("not a valid artifact: %v", err)
	}
	if f.Mode != "full" && f.Mode != "smoke" {
		return fmt.Errorf(`missing or unknown "mode" %q (want "full" or "smoke")`, f.Mode)
	}
	if len(f.Current) == 0 {
		return fmt.Errorf(`empty "current" section`)
	}
	for _, name := range requiredBenchmarks {
		if _, ok := f.Current[name]; !ok {
			return fmt.Errorf("current section is missing %s", name)
		}
	}
	for name, m := range f.Current {
		if m.NsPerOp <= 0 {
			return fmt.Errorf("current %s: ns_per_op %v is not positive", name, m.NsPerOp)
		}
		if m.Samples < 1 {
			return fmt.Errorf("current %s: missing samples count", name)
		}
		if m.Iterations < 1 {
			return fmt.Errorf("current %s: missing iterations", name)
		}
		if f.Mode == "full" {
			if m.Samples < minSamples {
				return fmt.Errorf("current %s: full-mode artifact with only %d samples", name, m.Samples)
			}
			if m.MeanNsPerOp <= 0 {
				return fmt.Errorf("current %s: full-mode artifact without mean_ns_per_op", name)
			}
		}
	}
	for name, m := range f.Baseline {
		if m.NsPerOp <= 0 {
			return fmt.Errorf("baseline %s: ns_per_op %v is not positive", name, m.NsPerOp)
		}
	}
	if len(f.Speedup) > 0 {
		if f.Mode != "full" {
			return fmt.Errorf(`"speedup" section present in a %q-mode artifact — smoke ratios are noise`, f.Mode)
		}
		for name, r := range f.Speedup {
			if r <= 0 {
				return fmt.Errorf("speedup %s: ratio %v is not positive", name, r)
			}
			base, okB := f.Baseline[name]
			cur, okC := f.Current[name]
			if !okB || !okC {
				return fmt.Errorf("speedup %s: benchmark missing from baseline or current", name)
			}
			if cur.Samples < minSamples {
				return fmt.Errorf("speedup %s: computed from %d samples (<%d)", name, cur.Samples, minSamples)
			}
			if want := round2(base.NsPerOp / cur.NsPerOp); math.Abs(want-r) > 0.01 {
				return fmt.Errorf("speedup %s: %v does not match baseline/current = %v", name, r, want)
			}
		}
	}
	return nil
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// sample is one parsed benchmark result line.
type sample struct {
	ns     float64
	iters  int64
	bytes  int64
	allocs int64
}

// parse extracts benchmark result lines ("BenchmarkX-8  N  T ns/op ...")
// from mixed go-test output and aggregates repeated runs of the same
// benchmark (as produced by -count=N) into per-benchmark sample sets.
func parse(src *os.File) (map[string]Metrics, error) {
	samples := make(map[string][]sample)
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
		var s sample
		s.iters, _ = strconv.ParseInt(fields[1], 10, 64)
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q for %s", val, name)
				}
				s.ns = f
				ok = true
			case "B/op":
				s.bytes, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				s.allocs, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if ok {
			samples[name] = append(samples[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Metrics, len(samples))
	for name, ss := range samples {
		out[name] = aggregate(ss)
	}
	return out, nil
}

// aggregate folds one benchmark's samples into its artifact entry.
func aggregate(ss []sample) Metrics {
	best := ss[0]
	sum, max := 0.0, ss[0].ns
	for _, s := range ss {
		sum += s.ns
		if s.ns < best.ns {
			best = s
		}
		if s.ns > max {
			max = s.ns
		}
	}
	mean := sum / float64(len(ss))
	var dev float64
	if len(ss) > 1 {
		for _, s := range ss {
			dev += (s.ns - mean) * (s.ns - mean)
		}
		dev = math.Sqrt(dev / float64(len(ss)-1))
	}
	return Metrics{
		NsPerOp:       best.ns,
		MeanNsPerOp:   round2(mean),
		StddevNsPerOp: round2(dev),
		MaxNsPerOp:    max,
		Samples:       len(ss),
		BytesPerOp:    best.bytes,
		AllocsPerOp:   best.allocs,
		Iterations:    best.iters,
	}
}
