package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval of the traced run: a call into the system
// made by the benchmark, or a synthetic child built from a stage entry the
// system reported (Pipeline.Times, Stats.Stages).
type span struct {
	id, parent int // parent 0 is the root
	name       string
	tid        int // timeline row: 0 for batch work, the client number for requests
	start, end time.Duration
	cpu        time.Duration // process CPU spent inside the span (0 when not sampled)
	synthetic  bool
	args       map[string]any
}

// recorder keeps the spans of a run in memory until the run ends. A nil
// recorder records nothing, so untraced passes pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// since converts a wall-clock instant to the recorder's timeline.
func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.t0) }

// add records a finished span and returns its id.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.id = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.id
}

// open records a span that starts now and is closed by close.
func (r *recorder) open(name string, parent, tid int, args map[string]any) int {
	if r == nil {
		return 0
	}
	return r.add(span{parent: parent, name: name, tid: tid, start: r.since(time.Now()), end: -1, args: args})
}

// close ends an open span.
func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// call times fn as a child span of parent, sampling process CPU when cpu
// is set, and returns fn's error.
func (r *recorder) call(name string, parent int, cpu bool, fn func() error) error {
	if r == nil {
		return fn()
	}
	var c0 time.Duration
	if cpu {
		c0 = processCPU()
	}
	start := time.Now()
	err := fn()
	s := span{parent: parent, name: name, start: r.since(start), end: r.since(time.Now())}
	if cpu {
		s.cpu = processCPU() - c0
	}
	r.add(s)
	return err
}

// stages adds synthetic children laid end to end from start, one per
// reported stage entry.
func (r *recorder) stages(parent, tid int, start time.Duration, names []string, ds []time.Duration) {
	if r == nil {
		return
	}
	for i, name := range names {
		r.add(span{parent: parent, name: name, tid: tid, start: start, end: start + ds[i], synthetic: true})
		start += ds[i]
	}
}

// mark returns the current span count, so since(mark) selects the spans
// recorded after it (one pass).
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// from returns a copy of the spans recorded after mark.
func (r *recorder) from(mark int) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// layerTotals sums span durations by name, in seconds.
func layerTotals(spans []span) map[string]float64 {
	secs := map[string]float64{}
	for _, s := range spans {
		secs[s.name] += (s.end - s.start).Seconds()
	}
	return secs
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := time.Duration(0), s.start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// writeSelfTable prints, per span name, the span count, total time and
// self time over all traced passes.
func writeSelfTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		r.n++
		r.total += s.end - s.start
		r.self += self[s.id]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-16s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range list {
		fmt.Fprintf(w, "%-16s %8d %12.4f %12.4f\n", r.name, r.n, r.total.Seconds(), r.self.Seconds())
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds), which Perfetto and chrome://tracing open.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans)+3)
	for tid, name := range []string{"batch", "client 1", "client 2"} {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		cat := "call"
		if s.synthetic {
			cat = "stage"
		}
		if s.cpu > 0 {
			args["cpu_ms"] = float64(s.cpu.Microseconds()) / 1e3
		}
		events = append(events, event{Name: s.name, Cat: cat, Ph: "X", Ts: us(s.start),
			Dur: us(s.end - s.start), Pid: 1, Tid: s.tid, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
