package serve

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wytiwyg/internal/core"
	"wytiwyg/internal/refcache"
)

// startServer launches a daemon on a unix socket and returns a client
// for it plus the server handle. Serve's error lands on done.
func startServer(t *testing.T, cfg Config) (*Client, *Server, chan error) {
	t.Helper()
	if cfg.Cache == nil {
		dir, err := os.MkdirTemp("", "wytiwyg-serve-cache-")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		cfg.Cache, err = refcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Jobs == 0 {
		cfg.Jobs = 2
	}
	// Socket paths have a hard length limit; TMPDIR-based t.TempDir can
	// exceed it, so the socket gets its own short temp directory.
	sockDir, err := os.MkdirTemp("", "wytiwyg-sock-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(sockDir) })
	sock := filepath.Join(sockDir, "d.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c := Dial("unix:" + sock)
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c, srv, done
}

// stopServer drains the daemon and checks Serve returned cleanly.
func stopServer(t *testing.T, c *Client, done chan error) {
	t.Helper()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after shutdown")
	}
}

// payloadJSON canonicalizes a payload for byte comparison.
func payloadJSON(t *testing.T, p *Payload) string {
	t.Helper()
	if p == nil {
		t.Fatal("nil payload")
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// A round trip on every job kind, plus the warm path: the second
// identical submission must be answered from the shared cache with a
// byte-identical payload and without another pipeline execution.
func TestServeRoundTripAndWarmHit(t *testing.T) {
	c, srv, done := startServer(t, Config{})
	for _, kind := range []string{KindLift, KindLint, KindRecompile} {
		job := &Job{Kind: kind, Bench: "mcf"}
		cold, err := c.Submit(job)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if cold.Error != "" {
			t.Fatalf("%s: %s", kind, cold.Error)
		}
		if cold.Stats.Warm {
			t.Errorf("%s: first submission reported warm", kind)
		}
		if cold.Payload.Funcs == 0 || len(cold.Payload.Layout) == 0 {
			t.Errorf("%s: empty payload: %+v", kind, cold.Payload)
		}
		// Later kinds may be program-level cache hits inside the pipeline
		// (no stages run); only the first kind is guaranteed a full run.
		if kind == KindLift && len(cold.Stats.Stages) == 0 {
			t.Errorf("%s: cold response carries no stage timings", kind)
		}
		if kind == KindRecompile && !cold.Payload.Match {
			t.Errorf("recompile: recovered binary does not match the original")
		}

		warm, err := c.Submit(job)
		if err != nil {
			t.Fatalf("%s warm: %v", kind, err)
		}
		if !warm.Stats.Warm {
			t.Errorf("%s: second submission not served warm", kind)
		}
		if got, want := payloadJSON(t, warm.Payload), payloadJSON(t, cold.Payload); got != want {
			t.Errorf("%s: warm payload differs from cold:\n%s\nvs\n%s", kind, got, want)
		}
	}
	st := srv.Stats()
	if st.Requests != 6 || st.Executed != 3 || st.WarmHits != 3 {
		t.Errorf("server stats = %+v, want 6 requests, 3 executed, 3 warm", st)
	}
	stopServer(t, c, done)
}

// The serving surface preserves the determinism invariant: a daemon
// response's payload is byte-identical to the same job run in-process by
// a bare Runner (the `wytiwyg submit -local` path), for every kind, at a
// different worker count, with no cache attached.
func TestServePayloadMatchesLocalRun(t *testing.T) {
	c, _, done := startServer(t, Config{Jobs: 3})
	local := &Runner{Jobs: 1}
	for _, kind := range []string{KindLift, KindLint, KindRecompile} {
		job := &Job{Kind: kind, Bench: "mcf"}
		if err := job.Normalize(); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Submit(job)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if resp.Error != "" {
			t.Fatalf("%s: %s", kind, resp.Error)
		}
		pay, _, err := local.Run(job)
		if err != nil {
			t.Fatalf("%s local: %v", kind, err)
		}
		if got, want := payloadJSON(t, resp.Payload), payloadJSON(t, pay); got != want {
			t.Errorf("%s: daemon payload differs from the local run:\n%s\nvs\n%s", kind, got, want)
		}
	}
	stopServer(t, c, done)
}

// A malformed job must come back as a structured error, not a hang or a
// crash.
func TestServeRejectsBadJobs(t *testing.T) {
	c, _, done := startServer(t, Config{})
	for _, job := range []*Job{
		{Kind: "transmogrify", Bench: "mcf"},
		{Kind: KindLint},                                    // neither bench nor source
		{Kind: KindLint, Bench: "mcf", Source: "int x;"},    // both
		{Kind: KindLint, Bench: "no-such-benchmark"},        // unknown program
		{Kind: KindLint, Bench: "mcf", Profile: "tcc-O9"},   // unknown profile
		{Kind: KindLint, Bench: "mcf", Lint: "destructive"}, // unknown lint mode
		{Kind: KindLint, Bench: "mcf", Lint: "off"},         // verification always runs
	} {
		resp, err := c.Submit(job)
		if err != nil {
			t.Fatalf("%+v: transport error %v", job, err)
		}
		if resp.Error == "" {
			t.Errorf("%+v: accepted", job)
		}
	}
	stopServer(t, c, done)
}

// An oversized body is refused with 413, and a job with too many inputs or
// an unknown profile or benchmark with 400; none reaches the single-flight
// group, a worker or the cache.
func TestServeRejectsOversizedJobs(t *testing.T) {
	cache, err := refcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Cache: cache, Jobs: 1})
	inputs := strings.Repeat("7,", maxInputs) + "7"
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"body over the byte cap", `{"kind":"lint","source":"` + strings.Repeat("x", maxJobBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
		{"one input over the cap", `{"kind":"lint","bench":"mcf","inputs":[` + inputs + `]}`,
			http.StatusBadRequest},
		{"unknown profile", `{"kind":"lint","bench":"mcf","profile":"gcc99-O9"}`, http.StatusBadRequest},
		{"unknown benchmark", `{"kind":"lint","bench":"nosuchbench"}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(c.body)))
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: status %d: %v", c.name, rec.Code, err)
		}
		if rec.Code != c.status || resp.Error == "" {
			t.Errorf("%s: status %d with %d-byte error; want status %d and an error",
				c.name, rec.Code, len(resp.Error), c.status)
		}
	}
	if st := srv.Stats(); st != (ServerStats{}) {
		t.Errorf("rejected jobs reached the daemon: %+v", st)
	}
	job := Job{Kind: KindLint, Bench: "mcf", Inputs: make([]int32, maxInputs)}
	if err := job.Normalize(); err != nil {
		t.Errorf("a job with exactly %d inputs is rejected: %v", maxInputs, err)
	}
}

// A request from an older client that still sends the removed "stream"
// option decodes (the server ignores unknown fields), normalizes to the
// same job, and gets the same digest and payload as the job without it.
func TestServeAcceptsLegacyStreamField(t *testing.T) {
	const plainBody = `{"kind":"lift","bench":"mcf"}`
	const legacyBody = `{"kind":"lift","bench":"mcf","stream":true}`
	decode := func(body string) *Job {
		t.Helper()
		var job Job
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&job); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := job.Normalize(); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return &job
	}
	plain, legacy := decode(plainBody), decode(legacyBody)
	if plain.Digest() != legacy.Digest() {
		t.Errorf("digests differ: %s without the field, %s with it", plain.Digest(), legacy.Digest())
	}

	srv := New(Config{Jobs: 2})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(legacyBody)))
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d: %v", rec.Code, err)
	}
	if resp.Error != "" {
		t.Fatalf("legacy request rejected: %s", resp.Error)
	}
	want, _, err := (&Runner{Jobs: 1}).Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := payloadJSON(t, resp.Payload), payloadJSON(t, want); got != want {
		t.Errorf("legacy payload differs from the plain job's:\n%s\nvs\n%s", got, want)
	}
}

// inlineSrc is an inline mini-C job source that reads an input and calls
// two functions.
const inlineSrc = `
extern int input_int(int i);
extern int printf(char *fmt, ...);

int stable(int n) {
	int s = 0, i;
	for (i = 0; i < n; i++) s += i * i;
	return s;
}

int main() {
	int n = input_int(0);
	printf("a=%d b=%d\n", stable(n), tweaked(n));
	return 0;
}

int tweaked(int n) {
	int r = 1, i;
	for (i = 1; i <= n; i++) r += i;
	return r;
}
`

// Graceful shutdown must drain: a job in flight when shutdown begins
// still completes and its client still receives the response.
func TestServeShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once bool
	obs := func(e core.StageEvent) {
		if e.Stage == "trace" && e.Action == "start" && !once {
			once = true
			close(started)
			<-release
		}
	}
	c, _, done := startServer(t, Config{Observer: obs})
	respCh := make(chan *Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := c.Submit(&Job{Kind: KindLint, Bench: "mcf"})
		respCh <- resp
		errCh <- err
	}()
	<-started
	// The job is mid-pipeline; begin the drain.
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("daemon exited with an in-flight job (%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	resp := <-respCh
	if err := <-errCh; err != nil {
		t.Fatalf("in-flight job failed during drain: %v", err)
	}
	if resp.Error != "" || resp.Payload == nil {
		t.Fatalf("in-flight job got a broken response: %+v", resp)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after the drain completed")
	}
}
