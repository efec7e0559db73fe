// Command pipebench is the repository's end-to-end and per-layer
// benchmark. It drives the recompiler only through its public calls, runs
// one workload for a fixed time, checks every output against an
// independent reference, and prints one JSON result line.
//
// Usage:
//
//	pipebench --workload corpus-replay|analysis-heavy|serve-mixed|all \
//	          --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// A run repeats passes of the workload until S seconds have gone by. A
// pass sets the workload up from scratch (minicc builds, reference runs
// of the original binaries, and for serve-mixed a fresh daemon), then
// measures one fixed unit of work. With --trace 0 the result holds the
// end-to-end metrics, each a median over passes, with times scaled to the
// reference host by a speed probe sampled between passes (calib.go).
// With --trace 1 traced
// and untraced passes alternate: the result holds the per-layer metrics
// of the traced passes, the tracing overhead is traced minus untraced,
// a per-span self-time table goes to standard error, and the spans are
// written to DIR as Chrome trace-event JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how often a pass sets up; setup_s is the median over
// every set-up of a run.
const setupReps = 3

// workers is the worker count of every pipeline pool, daemon and client
// loop: the two CPUs of the machine the benchmark was sized on.
const workers = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass of a workload measured.
type passResult struct {
	// setups holds setupReps set-up times: builds, reference runs, and
	// daemon start.
	setups []time.Duration
	wall   time.Duration   // the measured work
	cpu    time.Duration   // process CPU during the measured work
	alloc  uint64          // bytes allocated during the measured work
	lat    []time.Duration // one latency per operation
	// opNames names each latency when every pass repeats the same
	// operations (batch workloads); nil when operations differ by pass.
	opNames []string
	ops     int      // operations attempted
	fails   []string // one message per failed or incorrect operation
	// exact holds values that must repeat exactly in every pass:
	// deterministic counts and the cycle and layout metrics.
	exact map[string]float64
	// layers holds per-layer values (traced passes only).
	layers map[string]float64
}

// workload runs passes; the recorder is nil on untraced passes.
type workload interface {
	pass(rec *recorder) (*passResult, error)
}

// exactE2E are the end-to-end metrics taken from passResult.exact.
var exactE2E = []struct{ name, unit string }{
	{"cycles_ratio", "ratio"},
	{"layout_recall", "fraction"},
	{"layout_precision", "fraction"},
}

func main() {
	name := flag.String("workload", "", "corpus-replay, analysis-heavy, serve-mixed, or all")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs traced passes and reports per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for trace files and the daemon's socket and cache")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = []string{"corpus-replay", "analysis-heavy", "serve-mixed"}
	}
	ok := true
	for _, n := range names {
		w, err := newWorkload(n, *seed, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipebench:", err)
			os.Exit(2)
		}
		res, err := run(n, w, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", n, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64, outDir string) (workload, error) {
	switch name {
	case "corpus-replay":
		return newCorpusReplay(seed)
	case "analysis-heavy":
		return newAnalysisHeavy(seed)
	case "serve-mixed":
		return newServeMixed(seed, outDir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run repeats passes for the given time (at least three untraced passes,
// or two traced and two untraced ones) and summarizes them.
func run(name string, w workload, budget time.Duration, traced bool, outDir string) (*result, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	minPasses := 3
	if traced {
		minPasses = 4
	}
	var plain, tr []*passResult
	var spans []span
	probe := newSpeedProbe()
	probes := probe.samples()
	start := time.Now()
	for i := 0; ; i++ {
		var pr *recorder
		if traced && i%2 == 1 {
			pr = rec
		}
		mark := pr.mark()
		p, err := w.pass(pr)
		if err != nil {
			return nil, err
		}
		after := probe.samples()
		probes = append(probes, after...)
		fmt.Fprintf(os.Stderr, "pipebench: %s: pass %d traced=%v setup %.3fs work %.3fs cpu %.3fs probe %.2fms\n",
			name, i+1, pr != nil, p.setups[0].Seconds(), p.wall.Seconds(), p.cpu.Seconds(), median(after)*1e3)
		if pr != nil {
			tr = append(tr, p)
			spans = append(spans, pr.from(mark)...)
		} else {
			plain = append(plain, p)
		}
		elapsed := time.Since(start)
		if i+1 >= minPasses && elapsed >= budget {
			break
		}
		// A pass at least as long as the last one must still end well
		// inside the run's time limit.
		if i+1 >= minPasses && elapsed+time.Duration(setupReps)*p.setups[0]+p.wall > 150*time.Second {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]*passResult(nil), plain...), tr...)
	for _, p := range all {
		res.Attempted += p.ops
		res.Failed += len(p.fails)
		for _, f := range p.fails {
			fmt.Fprintf(os.Stderr, "pipebench: %s: FAIL %s\n", name, f)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if msg := compareExact(all); msg != "" {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %s\n", name, msg)
		res.Correct = false
	}
	put := func(k, unit string, v float64) { res.Metrics[k] = metric{Value: v, Unit: unit} }
	// The host's speed drifts with a correlation time of about ten
	// seconds, so one scale over every probe of the run fits its times
	// better than a scale per pass from the few probes beside it.
	scale := probeRefSeconds / median(probes)
	fmt.Fprintf(os.Stderr, "pipebench: %s: %d probes, median %.2fms, scale %.4f\n",
		name, len(probes), median(probes)*1e3, scale)

	if !traced {
		var walls, rates, cpus, allocs, setups []float64
		for _, p := range plain {
			walls = append(walls, p.wall.Seconds()*scale)
			rates = append(rates, float64(p.ops)/(p.wall.Seconds()*scale))
			cpus = append(cpus, p.cpu.Seconds()*scale)
			allocs = append(allocs, float64(p.alloc)/1e6)
			for _, d := range p.setups {
				setups = append(setups, d.Seconds()*scale)
			}
		}
		lat, fixed := latencies(plain, scale)
		recompile, rate := median(walls), median(rates)
		if fixed {
			// The sum of the operations' medians estimates one pass with
			// each operation's outliers filtered out separately.
			recompile = 0
			for _, l := range lat {
				recompile += l / 1e3
			}
			rate = float64(len(lat)) / recompile
		}
		put("recompile_s", "s", recompile)
		put("request_p50_ms", "ms", percentile(lat, 50))
		put("request_p90_ms", "ms", percentile(lat, 90))
		put("requests_per_s", "1/s", rate)
		put("success_rate", "fraction", 1-float64(res.Failed)/float64(res.Attempted))
		put("cpu_s", "s", median(cpus))
		put("alloc_mb", "MB", median(allocs))
		put("setup_s", "s", median(setups))
		for _, m := range exactE2E {
			put(m.name, m.unit, plain[0].exact[m.name])
		}
		fmt.Fprintf(os.Stderr, "pipebench: %s: %d passes, %d latency samples\n", name, len(plain), len(lat))
		return res, nil
	}

	for _, m := range layerMetrics {
		var vals []float64
		for _, p := range tr {
			vals = append(vals, p.layers[m.name])
		}
		put(m.name, m.unit, median(vals))
	}
	var plainWall, trWall []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds()*scale)
	}
	for _, p := range tr {
		trWall = append(trWall, p.wall.Seconds()*scale)
	}
	plainLat, _ := latencies(plain, scale)
	trLat, _ := latencies(tr, scale)
	put("trace.overhead_s", "s", median(trWall)-median(plainWall))
	put("trace.overhead_p50_ms", "ms", percentile(trLat, 50)-percentile(plainLat, 50))
	fmt.Fprintf(os.Stderr, "pipebench: %s: %d traced and %d untraced passes; self time over traced passes:\n",
		name, len(tr), len(plain))
	writeSelfTable(os.Stderr, spans)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "pipebench-"+name+".trace.json")
	if err := writeChrome(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "pipebench: %s: wrote %d spans to %s\n", name, len(spans), path)
	return res, nil
}

// latencies returns the samples, in reference milliseconds, that latency
// percentiles are taken over. When every pass repeats the same named
// operations (fixed), each operation contributes the median of its
// samples, so a percentile that falls between two programs does not land
// on one pass's outlier. Otherwise all samples are pooled.
func latencies(passes []*passResult, scale float64) (ms []float64, fixed bool) {
	byOp := map[string][]float64{}
	var names []string
	for _, p := range passes {
		for i, l := range p.lat {
			v := float64(l.Nanoseconds()) / 1e6 * scale
			if p.opNames == nil {
				ms = append(ms, v)
				continue
			}
			if _, ok := byOp[p.opNames[i]]; !ok {
				names = append(names, p.opNames[i])
			}
			byOp[p.opNames[i]] = append(byOp[p.opNames[i]], v)
		}
	}
	for _, n := range names {
		ms = append(ms, median(byOp[n]))
	}
	return ms, len(names) > 0
}

// compareExact checks that every pass reporting an exact value reported
// the same one.
func compareExact(passes []*passResult) string {
	first := map[string]float64{}
	for _, p := range passes {
		for k, v := range p.exact {
			if w, ok := first[k]; ok && w != v {
				return fmt.Sprintf("%s is not deterministic: %v then %v", k, w, v)
			}
			first[k] = v
		}
	}
	return ""
}

// median is the middle value (the mean of the middle two for even n).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// measureWork times fn and samples process CPU and allocation around it.
func measureWork(p *passResult, fn func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, t0 := ms.TotalAlloc, processCPU(), time.Now()
	fn()
	p.wall = time.Since(t0)
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
}
