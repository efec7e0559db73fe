// Package serve is the recompilation-as-a-service daemon: a long-lived
// server wrapping core.Pipeline that accepts lift/lint/recompile jobs
// over a local HTTP API (unix socket or TCP), multiplexes them onto a
// bounded worker pool, and uses the content-addressed refinement cache
// (package refcache) as a shared store across requests and across
// daemon restarts.
//
// The deployment shape is many clients submitting overlapping jobs. Two
// mechanisms serve repeats without recomputation:
//
//   - a serve-level response cache: every job's deterministic payload is
//     stored under a content address of the normalized job, so a repeat
//     submission is answered without running the pipeline at all;
//   - request-level single-flight dedup: concurrent requests for the
//     same job digest join one in-flight computation and all receive the
//     identical response.
//
// Below them, a lift or lint job whose program was already recovered
// under the same options is served from its program entry
// (core.RecoverLayout) without tracing or lifting; any changed binary runs
// the whole pipeline.
//
// Responses carry per-request statistics — whether the response was warm,
// per-stage wall-clock timings, and the queue depth at admission — next to a
// payload that is byte-identical to the equivalent one-shot CLI run
// (the determinism invariant extended to the serving surface; see
// DESIGN.md §15).
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/core"
	"wytiwyg/internal/minicc/gen"
)

// ProtocolVersion identifies the request/response schema. It is part of
// the serve-level cache key, so daemons speaking different protocol
// revisions never serve each other's cached payloads.
const ProtocolVersion = 1

// Request limits, fixed rather than configurable: a job body over
// maxJobBytes is refused with 413 and a job with more than maxInputs
// trace inputs with 400, before it reaches the single-flight group or
// the cache. Every built-in benchmark and CLI submission stays far below
// both.
const (
	maxJobBytes = 1 << 20
	maxInputs   = 64
)

// Job kinds accepted by the daemon.
const (
	// KindLift recovers the binary's stack layout.
	KindLift = "lift"
	// KindLint recovers the layout and reports the verification findings.
	KindLint = "lint"
	// KindRecompile runs the full pipeline — refine, optimize, recompile —
	// and validates the recovered binary against the original.
	KindRecompile = "recompile"
)

// Job is one client request: a program (a built-in benchmark or an
// inline mini-C source), the compiler profile and inputs to trace it
// under, and the pipeline options.
type Job struct {
	// Kind selects what to compute: KindLift, KindLint or KindRecompile.
	Kind string `json:"kind"`
	// Bench names a built-in benchmark program (exclusive with Source).
	Bench string `json:"bench,omitempty"`
	// Source is an inline mini-C source (exclusive with Bench).
	Source string `json:"source,omitempty"`
	// Profile is the compiler profile name (default gcc12-O3).
	Profile string `json:"profile,omitempty"`
	// Inputs are the integer trace inputs, one per run (a benchmark's own
	// input set when empty and Bench is set).
	Inputs []int32 `json:"inputs,omitempty"`
	// Lint selects what the verification, which every job runs, does
	// with proven violations: warn (default) or fail.
	Lint string `json:"lint,omitempty"`
	// VSA enables the value-set analysis stage.
	VSA bool `json:"vsa,omitempty"`
	// Types enables the type-recovery stage.
	Types bool `json:"types,omitempty"`
	// StaticRecover enables static recovery of untraced code.
	StaticRecover bool `json:"static_recover,omitempty"`
}

// Normalize fills defaults and validates the job. It must run before
// Digest: two requests meaning the same computation must normalize to
// the same bytes.
func (j *Job) Normalize() error {
	if j.Kind == "" {
		j.Kind = KindRecompile
	}
	switch j.Kind {
	case KindLift, KindLint, KindRecompile:
	default:
		return fmt.Errorf("serve: unknown job kind %q", j.Kind)
	}
	if (j.Bench == "") == (j.Source == "") {
		return fmt.Errorf("serve: exactly one of bench or source must be set")
	}
	if len(j.Inputs) > maxInputs {
		return fmt.Errorf("serve: %d inputs, at most %d allowed", len(j.Inputs), maxInputs)
	}
	if j.Bench != "" {
		if _, ok := progs.ByName(j.Bench); !ok {
			return fmt.Errorf("serve: unknown benchmark %q", j.Bench)
		}
	}
	if j.Profile == "" {
		j.Profile = "gcc12-O3"
	}
	if _, ok := gen.ProfileByName(j.Profile); !ok {
		return fmt.Errorf("serve: unknown profile %q", j.Profile)
	}
	if j.Lint == "" {
		j.Lint = "warn"
	}
	if _, err := core.ParseLintMode(j.Lint); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Digest content-addresses the normalized job: every field that can
// change the payload is hashed with length prefixes (no concatenation
// collisions), and the result keys both the single-flight map and —
// together with the pass and protocol versions — the serve-level
// response cache.
func (j *Job) Digest() string {
	h := sha256.New()
	str := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	str(j.Kind)
	str(j.Bench)
	str(j.Source)
	str(j.Profile)
	str(j.Lint)
	var ins []byte
	ins = binary.LittleEndian.AppendUint32(ins, uint32(len(j.Inputs)))
	for _, v := range j.Inputs {
		ins = binary.LittleEndian.AppendUint32(ins, uint32(v))
	}
	h.Write(ins)
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	h.Write([]byte{flag(j.VSA), flag(j.Types), flag(j.StaticRecover)})
	return hex.EncodeToString(h.Sum(nil))
}

// Payload is the deterministic half of a response: a pure function of
// the normalized job, byte-identical whether computed cold, joined from
// an in-flight computation, served warm from the shared cache, or
// produced by the one-shot CLI (`wytiwyg submit -local`).
type Payload struct {
	// Digest is the normalized job's content address.
	Digest string `json:"digest"`
	// Kind echoes the job kind.
	Kind string `json:"kind"`
	// Program names the benchmark, or "source" for inline submissions.
	Program string `json:"program"`
	// Funcs counts the recovered functions.
	Funcs int `json:"funcs"`
	// Layout renders each recovered frame, one line per function in
	// sorted name order.
	Layout []string `json:"layout"`
	// Degraded lists functions replaced by trap stubs, sorted, each with
	// its cause.
	Degraded []string `json:"degraded,omitempty"`
	// Diags renders the verification findings in report order (lint and
	// recompile kinds only).
	Diags []string `json:"diags,omitempty"`
	// Errors and Warnings count the report's findings by severity.
	Errors int `json:"errors"`
	// Warnings counts the report's warn-severity findings (see Errors).
	Warnings int `json:"warnings"`
	// CodeLen counts the recompiled binary's instructions (recompile only).
	CodeLen int `json:"code_len,omitempty"`
	// CodeDigest is the sha256 of the recompiled instruction stream's
	// encoding (recompile only) — the byte-identity witness.
	CodeDigest string `json:"code_digest,omitempty"`
	// ExitCode is the recompiled binary's exit code on the last input
	// (recompile only).
	ExitCode int32 `json:"exit_code"`
	// Cycles is the recompiled binary's cycle count on the last input
	// (recompile only).
	Cycles uint64 `json:"cycles,omitempty"`
	// Output is the recompiled binary's program output on the last input
	// (recompile only).
	Output string `json:"output,omitempty"`
	// Match reports functional equivalence with the original binary on
	// the last input (recompile only).
	Match bool `json:"match"`
}

// StageMs is one pipeline stage's wall-clock cost in a response.
type StageMs struct {
	// Stage is the stage name (see core.StageEvent).
	Stage string `json:"stage"`
	// Ms is the stage's wall-clock cost in milliseconds.
	Ms float64 `json:"ms"`
}

// Stats is the per-request half of a response: observability about how
// the answer was produced. Joined requests share the leader's stats —
// the computation happened once, so its statistics exist once.
type Stats struct {
	// Warm reports that the whole payload was served from the shared
	// response cache without running the pipeline.
	Warm bool `json:"warm"`
	// FuncHits is always 0: the per-function cache it counted is gone.
	// The field stays for clients that still read it.
	FuncHits int `json:"func_hits"`
	// FuncMisses is always 0 (see FuncHits).
	FuncMisses int `json:"func_misses"`
	// QueueDepth is the number of requests queued or executing at the
	// moment this request was admitted (including itself).
	QueueDepth int `json:"queue_depth"`
	// Stages holds the pipeline's per-stage wall-clock costs (empty when
	// warm).
	Stages []StageMs `json:"stages,omitempty"`
	// TotalMs is the end-to-end handling time in milliseconds.
	TotalMs float64 `json:"total_ms"`
}

// Response is the daemon's answer to one job submission.
type Response struct {
	// Payload carries the deterministic result (nil on error).
	Payload *Payload `json:"payload,omitempty"`
	// Stats carries the per-request statistics.
	Stats Stats `json:"stats"`
	// Error is the failure cause (empty on success).
	Error string `json:"error,omitempty"`
}

// ServerStats is the daemon-level counter snapshot served at /v1/stats.
type ServerStats struct {
	// Requests counts job submissions accepted so far.
	Requests int `json:"requests"`
	// Executed counts pipeline executions actually run.
	Executed int `json:"executed"`
	// WarmHits counts responses served entirely from the response cache.
	WarmHits int `json:"warm_hits"`
	// DedupJoins counts requests that joined another request's in-flight
	// computation.
	DedupJoins int `json:"dedup_joins"`
	// QueueDepth is the current number of queued or executing requests.
	QueueDepth int `json:"queue_depth"`
	// CacheHits, CacheMisses, CachePuts, CacheCorrupt and CacheForeign
	// snapshot the shared cache handle's traffic counters.
	CacheHits int `json:"cache_hits"`
	// CacheMisses snapshots the shared handle's misses (see CacheHits).
	CacheMisses int `json:"cache_misses"`
	// CachePuts snapshots the shared handle's writes (see CacheHits).
	CachePuts int `json:"cache_puts"`
	// CacheCorrupt snapshots the corrupt-entry removals (see CacheHits).
	CacheCorrupt int `json:"cache_corrupt"`
	// CacheForeign snapshots the foreign-version misses (see CacheHits).
	CacheForeign int `json:"cache_foreign"`
	// CacheEntries counts the entries on disk at snapshot time; -1 when
	// the directory walk failed (see CacheScanError).
	CacheEntries int `json:"cache_entries"`
	// CacheScanError carries the entry-count walk failure, if any.
	CacheScanError string `json:"cache_scan_error,omitempty"`
}
