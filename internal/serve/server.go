package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wytiwyg/internal/core"
	"wytiwyg/internal/par"
	"wytiwyg/internal/refcache"
)

// Config assembles a daemon.
type Config struct {
	// Cache is the shared content-addressed store (required): response
	// payloads, program entries and function entries all live there, and
	// several daemons may share one directory.
	Cache *refcache.Cache
	// Jobs bounds each pipeline's internal worker pool (0 = one per CPU).
	Jobs int
	// Workers bounds how many jobs execute concurrently (0 = one per
	// CPU). Requests beyond the bound queue; warm responses bypass the
	// queue entirely.
	Workers int
	// Observer, when non-nil, receives every pipeline stage event (a test
	// and benchmarking seam; must be goroutine-safe).
	Observer func(core.StageEvent)
}

// Server is the recompilation daemon: an HTTP handler set plus the
// shared execution state behind it.
//
// Endpoints: POST /v1/jobs (submit a Job, receive a Response),
// GET /v1/stats (ServerStats), GET /v1/health, POST /v1/shutdown
// (graceful: drains in-flight jobs, then Serve returns).
type Server struct {
	runner Runner
	cache  *refcache.Cache
	group  Group
	sem    chan struct{}
	http   *http.Server

	queued atomic.Int64

	mu       sync.Mutex
	requests int
	executed int
	warmHits int
	joins    int

	stopOnce sync.Once
	stopped  chan struct{}
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		runner:  Runner{Jobs: cfg.Jobs, Cache: cfg.Cache, Observer: cfg.Observer},
		cache:   cfg.Cache,
		sem:     make(chan struct{}, par.N(cfg.Workers)),
		stopped: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/shutdown", s.handleShutdown)
	s.http = &http.Server{Handler: mux}
	return s
}

// Serve accepts connections on l until Shutdown completes. It returns
// nil after a graceful shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		<-s.stopped // Serve returns as soon as the listener closes; wait for the drain
		return nil
	}
	return err
}

// Shutdown drains gracefully: the listener closes, in-flight requests —
// including queued jobs — run to completion and receive their
// responses, then Serve returns. The context bounds the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		err = s.http.Shutdown(ctx)
		close(s.stopped)
	})
	if err == nil {
		<-s.stopped
	}
	return err
}

// handleShutdown begins a graceful shutdown and returns immediately;
// the drain proceeds in the background (in-flight jobs, including the
// requester's other connections, still complete).
func (s *Server) handleShutdown(w http.ResponseWriter, _ *http.Request) {
	go s.Shutdown(context.Background())
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"draining":true}`)
}

// handleJob is the submission endpoint: decode, normalize, dedup
// in-flight, serve warm or execute, answer.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var job Job
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes)).Decode(&job); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeResponse(w, status, &Response{Error: fmt.Sprintf("serve: bad request: %v", err)})
		return
	}
	if err := job.Normalize(); err != nil {
		writeResponse(w, http.StatusBadRequest, &Response{Error: err.Error()})
		return
	}
	digest := job.Digest()
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
	depth := int(s.queued.Add(1))
	defer s.queued.Add(-1)
	start := time.Now()
	resp, joined := s.group.Do(digest, func() *Response {
		return s.execute(&job, digest, depth, start)
	})
	if joined {
		s.mu.Lock()
		s.joins++
		s.mu.Unlock()
	}
	status := http.StatusOK
	if resp.Error != "" {
		status = http.StatusUnprocessableEntity
	}
	writeResponse(w, status, resp)
}

// blobKey is the response cache's content address for one job digest: it
// extends the digest with the pass and protocol versions, so a pipeline
// semantics change or a schema change moves every key.
func blobKey(digest string) refcache.Key {
	return refcache.NewKey("serve",
		[]byte(core.PassVersion),
		[]byte(fmt.Sprintf("proto-%d", ProtocolVersion)),
		[]byte(digest),
	)
}

// execute produces the response for one deduped job: a warm response
// straight from the shared cache when the payload is already there, else
// a pipeline run on a bounded worker slot followed by a cache write.
func (s *Server) execute(job *Job, digest string, depth int, start time.Time) *Response {
	key := blobKey(digest)
	var cached Payload
	if s.cache != nil && s.cache.GetJSON(key, &cached) {
		s.mu.Lock()
		s.warmHits++
		s.mu.Unlock()
		return &Response{
			Payload: &cached,
			Stats: Stats{
				Warm:       true,
				HitRate:    1,
				QueueDepth: depth,
				TotalMs:    roundMs(time.Since(start)),
			},
		}
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.mu.Lock()
	s.executed++
	s.mu.Unlock()
	pay, info, err := s.runner.Run(job)
	if err != nil {
		return &Response{
			Error: err.Error(),
			Stats: Stats{QueueDepth: depth, TotalMs: roundMs(time.Since(start))},
		}
	}
	if s.cache != nil {
		s.cache.PutJSON(key, pay)
	}
	stats := Stats{
		FuncHits:   info.FuncHits,
		FuncMisses: info.FuncMisses,
		QueueDepth: depth,
		Stages:     stageMs(info.Times),
		TotalMs:    roundMs(time.Since(start)),
	}
	if n := info.FuncHits + info.FuncMisses; n > 0 {
		stats.HitRate = float64(info.FuncHits) / float64(n)
	}
	return &Response{Payload: pay, Stats: stats}
}

// handleStats serves the daemon-level counter snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// Stats snapshots the daemon-level counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Requests:   s.requests,
		Executed:   s.executed,
		WarmHits:   s.warmHits,
		DedupJoins: s.joins,
	}
	s.mu.Unlock()
	st.QueueDepth = int(s.queued.Load())
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits, st.CacheMisses, st.CachePuts = cs.Hits, cs.Misses, cs.Puts
		st.CacheCorrupt, st.CacheForeign = cs.Corrupt, cs.Foreign
		n, err := s.cache.Len()
		st.CacheEntries = n
		if err != nil {
			st.CacheEntries = -1
			st.CacheScanError = err.Error()
		}
	}
	return st
}

// Handler exposes the HTTP handler set (tests drive it directly).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// writeResponse encodes one response with the given HTTP status.
func writeResponse(w http.ResponseWriter, status int, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}
