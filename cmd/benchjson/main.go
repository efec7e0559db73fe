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
// on malformed or missing fields, so CI fails instead of publishing junk.
//
// With -vsa the tool ignores stdin and instead measures the value-set
// analysis on a pointer-heavy slice of the benchmark corpus — per-function
// analysis wall time plus the optimizer's promoted-slot counts with and
// without the alias oracle — and merges the result into the artifact's
// "vsa" section.
//
// With -types the tool ignores stdin and measures the type-recovery stage
// on an aggregate-heavy slice of the corpus — per-function inference wall
// time, typed-slot coverage, precision/recall against the compiler's
// declared slot types, and the optimizer's promoted-slot counts with and
// without the typed slot splitter — and merges the result into the
// artifact's "types" section.
//
// With -static the tool likewise ignores stdin and measures static
// cold-code recovery under partial trace coverage: how many cold candidates
// discovery finds, how many the VSA admission gate accepts, and each
// function's analysis cost. The result lands in the artifact's "static"
// section.
//
// With -guards the tool re-measures the sanitizer-overhead ratios (the
// Table 1 extension): unsanitized vs sanitized vs sanitized-with-VSA-guard-
// elision cycle counts, merged into the artifact's "guards" section.
//
// With -serve the tool measures the recompilation daemon (internal/serve):
// each program is submitted twice against a freshly started daemon with an
// empty cache — the cold submission runs the full pipeline, the warm repeat
// is answered from the shared response cache — and the cold/warm latencies,
// speedup and hit rates land in the artifact's "serve" section
// (conventionally BENCH_serve.json).
//
// Usage:
//
//	go test -bench=. -count=5 ./... | benchjson -mode full -o BENCH_interp.json
//	go test -bench=. -benchtime=1x ./... | benchjson -mode smoke -o /tmp/smoke.json
//	benchjson -check -o BENCH_interp.json
//	benchjson -vsa -o BENCH_interp.json
//	benchjson -types -o BENCH_interp.json
//	benchjson -static -o BENCH_interp.json
//	benchjson -guards -o BENCH_interp.json
//	benchjson -serve -o BENCH_serve.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
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
	VSA      []VSASection       `json:"vsa,omitempty"`      // value-set analysis measurements
	Types    []TypeSection      `json:"types,omitempty"`    // type-recovery measurements
	Static   []StaticSection    `json:"static,omitempty"`   // cold-code recovery measurements
	Guards   []GuardSection     `json:"guards,omitempty"`   // sanitizer guard-elision measurements
	Serve    []ServeSection     `json:"serve,omitempty"`    // recompilation-daemon measurements
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
	vsaFlag := flag.Bool("vsa", false, "measure the value-set analysis (cost and promoted slots) instead of reading bench output")
	typesFlag := flag.Bool("types", false, "measure the type-recovery stage (cost, accuracy, promoted slots) instead of reading bench output")
	staticFlag := flag.Bool("static", false, "measure static cold-code recovery (candidates, admissions, analysis cost) instead of reading bench output")
	guardsFlag := flag.Bool("guards", false, "measure sanitizer overhead with and without VSA guard elision instead of reading bench output")
	serveFlag := flag.Bool("serve", false, "measure the recompilation daemon (cold vs warm latency, hit rates) instead of reading bench output")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *check:
		if err := checkArtifact(*out); err != nil {
			fail(fmt.Errorf("%s: %v", *out, err))
		}
		fmt.Printf("benchjson: %s is well-formed\n", *out)
		return
	case *vsaFlag:
		if err := writeVSA(*out); err != nil {
			fail(err)
		}
		return
	case *typesFlag:
		if err := writeTypes(*out); err != nil {
			fail(err)
		}
		return
	case *staticFlag:
		if err := writeStatic(*out); err != nil {
			fail(err)
		}
		return
	case *guardsFlag:
		if err := writeGuards(*out); err != nil {
			fail(err)
		}
		return
	case *serveFlag:
		if err := writeServe(*out); err != nil {
			fail(err)
		}
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
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	// A serve-only artifact (conventionally BENCH_serve.json) carries no
	// benchmark sections; validate just the daemon measurements.
	if len(f.Current) == 0 && len(f.Serve) > 0 {
		return checkServeSections(f.Serve)
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
	for _, sec := range f.Types {
		if sec.Program == "" {
			return fmt.Errorf("types section entry missing program")
		}
		if sec.TypedSlots > sec.TotalSlots {
			return fmt.Errorf("types %s: typed %d exceeds total %d", sec.Program, sec.TypedSlots, sec.TotalSlots)
		}
		if sec.Precision < 0 || sec.Precision > 1 || sec.Recall < 0 || sec.Recall > 1 {
			return fmt.Errorf("types %s: precision/recall out of [0,1]", sec.Program)
		}
		if sec.PromotedTyped < sec.PromotedBaseline {
			return fmt.Errorf("types %s: typed splitting lost promotions (%d < %d)",
				sec.Program, sec.PromotedTyped, sec.PromotedBaseline)
		}
	}
	for _, sec := range f.VSA {
		if err := checkVSASection(sec); err != nil {
			return err
		}
	}
	for _, sec := range f.Guards {
		if sec.Program == "" || sec.PlainCycles == 0 {
			return fmt.Errorf("guards section entry missing program or cycles")
		}
		if sec.Elided > sec.Guards {
			return fmt.Errorf("guards %s: elided %d exceeds recognized %d", sec.Program, sec.Elided, sec.Guards)
		}
	}
	return checkServeSections(f.Serve)
}

// checkVSASection validates one "vsa" section entry: every function's
// timing is a min over at least minSamples analyses with the max beside
// it, and the oracle never loses promotions.
func checkVSASection(sec VSASection) error {
	if sec.Program == "" || len(sec.Funcs) == 0 {
		return fmt.Errorf("vsa section entry missing program or functions")
	}
	for _, fn := range sec.Funcs {
		if fn.Samples < minSamples {
			return fmt.Errorf("vsa %s/%s: %d samples (<%d)", sec.Program, fn.Func, fn.Samples, minSamples)
		}
		if fn.AnalysisMs < 0 || fn.AnalysisMaxMs < fn.AnalysisMs {
			return fmt.Errorf("vsa %s/%s: min %v ms and max %v ms are inconsistent",
				sec.Program, fn.Func, fn.AnalysisMs, fn.AnalysisMaxMs)
		}
	}
	if sec.PromotedOracle < sec.PromotedBaseline {
		return fmt.Errorf("vsa %s: the oracle lost promotions (%d < %d)",
			sec.Program, sec.PromotedOracle, sec.PromotedBaseline)
	}
	return nil
}

// checkServeSections validates a "serve" section: the warm path must
// actually be warm — below the cold latency, fully cache-served — or the
// artifact is advertising a daemon that does nothing.
func checkServeSections(secs []ServeSection) error {
	for _, sec := range secs {
		if sec.Program == "" {
			return fmt.Errorf("serve section entry missing program")
		}
		if sec.ColdMs <= 0 || sec.WarmMs <= 0 {
			return fmt.Errorf("serve %s: non-positive latency (cold %v, warm %v)",
				sec.Program, sec.ColdMs, sec.WarmMs)
		}
		if sec.WarmMs >= sec.ColdMs {
			return fmt.Errorf("serve %s: warm latency %.2fms is not below cold %.2fms",
				sec.Program, sec.WarmMs, sec.ColdMs)
		}
		if sec.WarmHitRate != 1 {
			return fmt.Errorf("serve %s: warm hit rate %v, want 1", sec.Program, sec.WarmHitRate)
		}
		if sec.FuncMisses <= 0 {
			return fmt.Errorf("serve %s: cold run reports no function computations", sec.Program)
		}
	}
	return nil
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

func roundMs(d time.Duration) float64 { return round2(float64(d.Microseconds()) / 1000) }

// writeVSA merges a freshly measured "vsa" section into the artifact,
// leaving the benchmark sections untouched.
func writeVSA(path string) error {
	sections, err := vsaSections()
	if err != nil {
		return err
	}
	f, err := readArtifact(path)
	if err != nil {
		return err
	}
	f.VSA = sections
	return writeArtifact(path, f, fmt.Sprintf("vsa section for %d programs", len(sections)))
}

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
