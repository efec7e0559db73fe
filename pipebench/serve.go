package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/layout"
	"wytiwyg/internal/machine"
	"wytiwyg/internal/minicc/gen"
	"wytiwyg/internal/obj"
	"wytiwyg/internal/refcache"
	"wytiwyg/internal/serve"
)

// Request classes of the serve-mixed stream.
const (
	classCold   = "cold"        // recompile of a binary no request has named yet
	classIncr   = "incremental" // a new job on a binary this client already sent
	classWarm   = "warm"        // an exact repeat of a job this client already sent
	classJoined = "joined"      // a new job both clients send at once
)

// serveProgs are the corpus programs of the serve-mixed universe, each
// under all four profiles: the six whose cold recompile costs under
// about 0.2 s. sjeng, hmmer, h264ref and astar cost 0.3 to 0.5 s even at
// their smallest inputs, and would make a pass three times as long.
var serveProgs = map[string]bool{"bzip2": true, "gcc": true, "mcf": true,
	"gobmk": true, "libquantum": true, "xalancbmk": true}

// The stream shape. Each binary is sent cold once, three of every four
// get one incremental job, and pairs of new jobs go out from both
// clients at once; the rest are warm repeats. With warmPerClient warm
// requests 80% of requests are warm, so the median request lies well
// inside the warm ones and the 90th percentile inside the executed ones.
const (
	warmPerClient = 100
	pairs         = 4
)

// binary is one program of the universe built under one profile.
type binary struct {
	prog, profile string
	base          []int32 // the inputs of its cold recompile
	client        int     // the client that sends it cold
}

// request is one entry of a client's stream.
type request struct {
	job   serve.Job
	bin   int // index into the universe
	class string
	pair  int // barrier index for classJoined
}

// serveMixed runs a fresh in-process daemon with a fresh, empty refcache
// each pass, and two closed-loop clients replaying a request stream drawn
// from the seed. Each pass draws a new stream: the executed jobs are the
// same in every stream, and a run's figures average over several orders.
type serveMixed struct {
	outDir   string
	universe []binary
	rng      *rand.Rand
}

func newServeMixed(seed int64, outDir string) (workload, error) {
	s := &serveMixed{outDir: outDir}
	for i, sz := range corpusSizes {
		if !serveProgs[sz.prog] {
			continue
		}
		for j, prof := range gen.Profiles {
			// Each client sends two profiles of every program cold, so
			// both carry the same mix of cheap and costly binaries.
			s.universe = append(s.universe, binary{prog: sz.prog, profile: prof.Name,
				base: []int32{sz.train, sz.ref}, client: (i + j) % 2})
		}
	}
	s.rng = rand.New(rand.NewSource(seed))
	return s, nil
}

// jobsFor returns binary b's cold job and its incremental job, if any.
// Which binaries get which incremental variant is fixed, so every seed
// executes the same work and only the order and the repeats change:
//   - lift with a new input: function-entry misses and writes;
//   - lint of the cold inputs: a program-entry hit;
//   - recompile of the cold inputs with static recovery on: the pipeline
//     reruns, and the function entries, whose key leaves that option out,
//     hit.
func jobsFor(universe []binary, b int) (cold serve.Job, incr *serve.Job) {
	bin := universe[b]
	cold = serve.Job{Kind: serve.KindRecompile, Bench: bin.prog, Profile: bin.profile, Inputs: bin.base}
	j := cold
	switch (b + b/len(gen.Profiles)) % 4 {
	case 0:
		j.Kind, j.Inputs = serve.KindLift, bin.base[1:]
	case 1:
		j.Kind = serve.KindLint
	case 2:
		j.StaticRecover = true
	default:
		return cold, nil
	}
	return cold, &j
}

// pairBins are the universe indices whose lint of the train input alone
// is sent by both clients at once (gcc44-O3 builds of four programs).
var pairBins = [pairs]int{3, 7, 11, 15}

// genStreams draws both clients' request lists. Every warm or
// incremental request refers to a job or binary its own client sent
// before, so its class does not depend on how the two clients
// interleave.
func genStreams(rng *rand.Rand, universe []binary) [2][]request {
	var out [2][]request
	for c := 0; c < 2; c++ {
		var colds, incrs []request
		for _, b := range rng.Perm(len(universe)) {
			if universe[b].client != c {
				continue
			}
			cold, incr := jobsFor(universe, b)
			colds = append(colds, request{job: cold, bin: b, class: classCold})
			if incr != nil {
				incrs = append(incrs, request{job: *incr, bin: b, class: classIncr})
			}
		}
		bag := make([]string, 0, len(colds)+len(incrs)+warmPerClient)
		for range colds {
			bag = append(bag, classCold)
		}
		for range incrs {
			bag = append(bag, classIncr)
		}
		for i := 0; i < warmPerClient; i++ {
			bag = append(bag, classWarm)
		}
		rng.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
		// The stream opens with a cold request: nothing precedes it to
		// repeat or extend.
		for i, cl := range bag {
			if cl == classCold {
				bag[0], bag[i] = bag[i], bag[0]
				break
			}
		}
		var list []request
		sent := map[int]bool{}
		// nextIncr takes the first pending incremental job whose binary
		// was already sent cold.
		nextIncr := func() (request, bool) {
			for i, r := range incrs {
				if sent[r.bin] {
					incrs = append(incrs[:i], incrs[i+1:]...)
					return r, true
				}
			}
			return request{}, false
		}
		every := len(bag) / (pairs + 1)
		for i, cl := range bag {
			if i > 0 && i%every == 0 && i/every <= pairs {
				k := i/every - 1
				b := pairBins[k]
				job := serve.Job{Kind: serve.KindLint, Bench: universe[b].prog,
					Profile: universe[b].profile, Inputs: universe[b].base[:1]}
				list = append(list, request{job: job, bin: b, class: classJoined, pair: k})
			}
			if cl == classCold && len(colds) == 0 {
				cl = classIncr
			}
			if cl == classIncr {
				if r, ok := nextIncr(); ok {
					list = append(list, r)
					continue
				}
				cl = classCold
			}
			switch cl {
			case classCold:
				r := colds[0]
				colds = colds[1:]
				sent[r.bin] = true
				list = append(list, r)
			case classWarm:
				prev := list[rng.Intn(len(list))]
				prev.class = classWarm
				list = append(list, prev)
			}
		}
		out[c] = list
	}
	return out
}

// sample is one request's outcome as a client saw it.
type sample struct {
	req     *request
	resp    *serve.Response
	err     error
	start   time.Time
	latency time.Duration
}

// native is a reference run of an original binary.
type native struct {
	res machine.Result
	out string
}

func (s *serveMixed) pass(rec *recorder) (*passResult, error) {
	pr := &passResult{exact: map[string]float64{}}
	streams := genStreams(s.rng, s.universe)
	var imgs []*obj.Image
	var refs map[string]native
	var preps []time.Duration
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var err error
		if imgs, refs, err = s.prepare(streams); err != nil {
			return nil, err
		}
		preps = append(preps, time.Since(t0))
	}
	t0 := time.Now()
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(s.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := refcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	// A relative socket path stays under the 108-byte limit however deep
	// the checkout is.
	sock := filepath.Join(dir, "d.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Cache: cache, Jobs: workers, Workers: workers})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	stopped := false
	// stop drains the daemon and waits until Serve has returned.
	stop := func() error {
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-served
	}
	defer func() {
		if !stopped {
			stop()
		}
	}()
	clients := [2]*serve.Client{serve.Dial("unix:" + sock), serve.Dial("unix:" + sock)}
	if err := clients[0].WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	start := time.Since(t0)
	for _, d := range preps {
		pr.setups = append(pr.setups, d+start)
	}

	var samples [2][]sample
	var barriers [pairs]sync.WaitGroup
	for k := range barriers {
		barriers[k].Add(2)
	}
	measureWork(pr, func() {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				samples[c] = s.client(clients[c], streams[c], &barriers)
			}(c)
		}
		wg.Wait()
	})
	st, err := clients[0].Stats()
	if err != nil {
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, err
	}

	s.score(pr, samples, imgs, refs, st)
	if rec != nil {
		for c := range samples {
			for _, sm := range samples[c] {
				s.record(rec, c+1, sm)
			}
		}
		s.layers(pr, samples, st)
	}
	return pr, nil
}

// prepare builds the universe and runs the original binaries on the last
// input of every recompile job, the reference its output is checked
// against.
func (s *serveMixed) prepare(streams [2][]request) ([]*obj.Image, map[string]native, error) {
	imgs := make([]*obj.Image, len(s.universe))
	for i, b := range s.universe {
		p, _ := progs.ByName(b.prog)
		prof, _ := gen.ProfileByName(b.profile)
		img, err := gen.Build(p.Src, prof, p.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s: build: %w", b.prog, b.profile, err)
		}
		imgs[i] = img
	}
	refs := map[string]native{}
	for _, list := range streams {
		for _, r := range list {
			if r.job.Kind != serve.KindRecompile {
				continue
			}
			last := r.job.Inputs[len(r.job.Inputs)-1]
			key := refKey(r.bin, last)
			if _, ok := refs[key]; ok {
				continue
			}
			res, out, err := run1(imgs[r.bin], machine.Input{Ints: []int32{last}})
			if err != nil {
				return nil, nil, fmt.Errorf("%s: reference run: %w", r.job.Bench, err)
			}
			refs[key] = native{res, out}
		}
	}
	return imgs, refs, nil
}

func refKey(bin int, last int32) string { return strconv.Itoa(bin) + "/" + strconv.Itoa(int(last)) }

// client sends its stream in a closed loop: the next request goes out
// when the previous response is in. Before a joined request it waits for
// the other client, so both send the same new job at once.
func (s *serveMixed) client(c *serve.Client, list []request, barriers *[pairs]sync.WaitGroup) []sample {
	out := make([]sample, 0, len(list))
	for i := range list {
		r := &list[i]
		if r.class == classJoined {
			barriers[r.pair].Done()
			barriers[r.pair].Wait()
		}
		job := r.job
		start := time.Now()
		resp, err := c.Submit(&job)
		out = append(out, sample{req: r, resp: resp, err: err, start: start, latency: time.Since(start)})
	}
	return out
}

// score checks every response and fills the pass's end-to-end values.
// Each job digest must get byte-identical payloads however it was
// served, and each recompile must reproduce the original binary's output
// and exit code on the last input.
func (s *serveMixed) score(pr *passResult, samples [2][]sample, imgs []*obj.Image,
	refs map[string]native, st *serve.ServerStats) {
	payloads := map[string]string{}
	var ratios []float64
	var acc layout.Accuracy
	shares := map[string]float64{}
	for c := range samples {
		for _, sm := range samples[c] {
			pr.ops++
			pr.lat = append(pr.lat, sm.latency)
			if msg := s.checkOne(sm, payloads, refs); msg != "" {
				first, _, _ := strings.Cut(msg, "\n")
				pr.fails = append(pr.fails, fmt.Sprintf("client %d %s %s/%s %v: %s", c+1,
					sm.req.job.Kind, sm.req.job.Bench, sm.req.job.Profile, sm.req.job.Inputs, first))
				continue
			}
			if sm.resp.Stats.Warm {
				shares[classWarm]++
			} else {
				shares[sm.req.class]++
			}
			if sm.req.class == classCold {
				pay := sm.resp.Payload
				ref := refs[refKey(sm.req.bin, sm.req.job.Inputs[len(sm.req.job.Inputs)-1])]
				ratios = append(ratios, float64(pay.Cycles)/float64(ref.res.Cycles))
				acc.Add(payloadAccuracy(pay, imgs[sm.req.bin].Truth))
			}
		}
	}
	pr.exact["cycles_ratio"] = geomean(ratios)
	pr.exact["layout_recall"] = acc.Recall()
	pr.exact["layout_precision"] = acc.Precision()
	pr.layers = map[string]float64{}
	for _, cl := range []string{classWarm, classIncr, classCold, classJoined} {
		pr.layers["serve.share_"+cl] = shares[cl] / float64(pr.ops)
	}
	fmt.Fprintf(os.Stderr, "pipebench: serve-mixed shares: warm %.3f, incremental %.3f, cold %.3f, joined %.3f; "+
		"daemon: %d requests, %d executed, %d warm, %d joins\n",
		pr.layers["serve.share_warm"], pr.layers["serve.share_incremental"], pr.layers["serve.share_cold"],
		pr.layers["serve.share_joined"], st.Requests, st.Executed, st.WarmHits, st.DedupJoins)
}

func (s *serveMixed) checkOne(sm sample, payloads map[string]string, refs map[string]native) string {
	if sm.err != nil {
		return sm.err.Error()
	}
	if sm.resp.Error != "" {
		return "daemon error: " + sm.resp.Error
	}
	pay := sm.resp.Payload
	if pay == nil {
		return "no payload"
	}
	job := sm.req.job
	if err := job.Normalize(); err != nil {
		return err.Error()
	}
	if pay.Digest != job.Digest() {
		return "payload digest does not match the job"
	}
	data, err := json.Marshal(pay)
	if err != nil {
		return err.Error()
	}
	if prev, ok := payloads[pay.Digest]; ok && prev != string(data) {
		return "payload differs from an earlier payload for the same digest"
	}
	payloads[pay.Digest] = string(data)
	if pay.Program != job.Bench || pay.Funcs == 0 {
		return fmt.Sprintf("payload names %q with %d functions", pay.Program, pay.Funcs)
	}
	if job.Kind != serve.KindRecompile {
		return ""
	}
	ref := refs[refKey(sm.req.bin, job.Inputs[len(job.Inputs)-1])]
	if !pay.Match || pay.Output != ref.out || pay.ExitCode != ref.res.ExitCode {
		return fmt.Sprintf("recompiled output %q exit %d match %v, want %q exit %d",
			pay.Output, pay.ExitCode, pay.Match, ref.out, ref.res.ExitCode)
	}
	return ""
}

// payloadAccuracy scores a payload's recovered layout (the rendered
// frames, before optimization) against the ground truth of the functions
// it names.
func payloadAccuracy(pay *serve.Payload, truth *layout.Program) layout.Accuracy {
	got, want := layout.NewProgram(), layout.NewProgram()
	for _, line := range pay.Layout {
		f := parseFrame(line)
		got.Add(f)
		if tf := truth.Frame(f.Func); tf != nil {
			want.Add(tf)
		}
	}
	return layout.Compare(want, got)
}

// parseFrame reads layout.Frame.String's "frame NAME: v@[lo,hi) ..." form.
func parseFrame(line string) *layout.Frame {
	head, vars, _ := strings.Cut(strings.TrimPrefix(line, "frame "), ":")
	f := &layout.Frame{Func: head}
	for _, tok := range strings.Fields(vars) {
		at := strings.LastIndex(tok, "@[")
		if at < 0 {
			continue
		}
		lo, hi, ok := strings.Cut(strings.TrimSuffix(tok[at+2:], ")"), ",")
		if !ok {
			continue
		}
		l, err1 := strconv.Atoi(lo)
		h, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil {
			continue
		}
		f.Vars = append(f.Vars, layout.Var{Name: tok[:at], Offset: int32(l), Size: uint32(h - l)})
	}
	return f
}

// record adds one request span with the daemon's reported stages as
// synthetic children, laid out from the moment handling began.
func (s *serveMixed) record(rec *recorder, tid int, sm sample) {
	end := rec.since(sm.start) + sm.latency
	args := map[string]any{"class": sm.req.class, "kind": sm.req.job.Kind,
		"program": sm.req.job.Bench + "/" + sm.req.job.Profile}
	if sm.resp != nil {
		args["warm"] = sm.resp.Stats.Warm
		if sm.resp.Payload != nil {
			args["digest"] = sm.resp.Payload.Digest
		}
	}
	id := rec.add(span{name: "request", tid: tid, start: rec.since(sm.start), end: end, args: args})
	if sm.resp == nil {
		return
	}
	total := time.Duration(sm.resp.Stats.TotalMs * float64(time.Millisecond))
	h := rec.add(span{parent: id, name: "handle", tid: tid, start: end - total, end: end, synthetic: true})
	var names []string
	var ds []time.Duration
	for _, st := range sm.resp.Stats.Stages {
		names = append(names, st.Stage)
		ds = append(ds, time.Duration(st.Ms*float64(time.Millisecond)))
	}
	rec.stages(h, tid, end-total, names, ds)
}

// layers derives the per-layer metrics of one traced pass.
func (s *serveMixed) layers(pr *passResult, samples [2][]sample, st *serve.ServerStats) {
	m := pr.layers
	var warm, exec, overhead []float64
	var hits, lookups float64
	secs := map[string]float64{}
	// Joined requests share the leader's stats: count each execution once.
	counted := map[string]bool{}
	for c := range samples {
		for _, sm := range samples[c] {
			if sm.resp == nil || sm.resp.Payload == nil {
				continue
			}
			stats := sm.resp.Stats
			lat := float64(sm.latency.Nanoseconds()) / 1e6
			m["serve.queue_depth_max"] = max(m["serve.queue_depth_max"], float64(stats.QueueDepth))
			if stats.Warm {
				warm = append(warm, lat)
				continue
			}
			exec = append(exec, stats.TotalMs)
			overhead = append(overhead, lat-stats.TotalMs)
			if counted[sm.resp.Payload.Digest] {
				continue
			}
			counted[sm.resp.Payload.Digest] = true
			hits += float64(stats.FuncHits)
			lookups += float64(stats.FuncHits + stats.FuncMisses)
			for _, stage := range stats.Stages {
				secs[stage.Stage] += stage.Ms / 1e3
			}
		}
	}
	m["serve.warm_p50_ms"] = percentile(warm, 50)
	m["serve.exec_p50_ms"] = percentile(exec, 50)
	m["serve.overhead_p50_ms"] = percentile(overhead, 50)
	m["serve.warm_ratio"] = float64(len(warm)) / float64(pr.ops)
	m["serve.dedup_joins"] = float64(st.DedupJoins)
	m["serve.executed"] = float64(st.Executed)
	if lookups > 0 {
		m["refcache.func_hit_ratio"] = hits / lookups
	}
	m["refcache.puts"] = float64(st.CachePuts)
	m["refcache.corrupt"] = float64(st.CacheCorrupt)
	m["tracer.s"] = secs["trace"]
	m["lifter.s"] = secs["cfg"] + secs["funcrec"] + secs["coldrec"] + secs["lift"]
	for _, k := range []string{"regsave", "varargs", "stackref", "symbolize", "vsa", "typerec"} {
		m[k+".s"] = secs[k]
	}
}
