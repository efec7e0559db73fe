#!/bin/sh
# Tier-1 gate. Every change must pass this script before it lands:
# formatting, vet, the documentation bar, a clean build, the full test
# suite, a race-detector pass over the parallel refinement paths, and a
# lint run (the static verification stage) over the examples and the
# benchmark corpus with zero proven violations.
#
# Each step prints its wall-clock cost so regressions in CI time are
# visible in the log.
set -eu

cd "$(dirname "$0")"

step() {
    name=$1
    shift
    echo "== $name"
    start=$(date +%s)
    "$@"
    echo "-- $name: $(($(date +%s) - start))s"
}

check_gofmt() {
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: the following files need formatting:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

check_examples() {
    for dir in examples/*/; do
        echo "-- go run ./$dir"
        go run "./$dir" >/dev/null
    done
}

step "gofmt" check_gofmt
step "go vet" go vet ./...
step "doclint" go run ./cmd/doclint ./internal ./cmd
step "go build" go build ./...
# The benchmark in pipebench/ is a module of its own, so the root
# `go build ./...` and `go vet ./...` skip it; vet it against this tree
# (its go.mod replaces wytiwyg with ../) so an API change here cannot
# break it silently. GOPROXY=off keeps the step offline.
step "go vet (pipebench)" env GOFLAGS= GOPROXY=off go -C pipebench vet ./...
step "go test" go test ./...
step "go test -race" go test -race -short ./...
# Every Table 1 profile: a proven violation can show at one profile only.
step "wytiwyg lint (benchmark corpus)" sh -c '
    set -e
    go build -o /tmp/wytiwyg-ci ./cmd/wytiwyg
    for prof in gcc12-O3 gcc12-O0 clang16-O3 gcc44-O3; do
        echo "-- lint -all -profile $prof"
        /tmp/wytiwyg-ci lint -all -profile "$prof"
    done'
step "examples" check_examples

# Superblock differential under the race detector: the full corpus run
# through Run and a Step loop, with and without BlockHook, plus the tracer
# checked against its stepwise reference on every corpus program and
# profile. The corpus/random-IR differentials skip under -short (the tracer
# test keeps only mcf), so the blanket `go test -race -short` above does
# not duplicate this step. The interpreter's hook-stream differential
# (compiled interpreter against the reference tree-walker, the inputs of a
# module running concurrently over one shared compiled Program) joins it
# with -short: mcf of the corpus plus the random and failure-path modules,
# with Generic actions and under the replay tracers' compiled actions,
# including the action-path differential (diffTracers: regsave+varargs and
# vartrack under compiled actions, Generic actions and the tree-walker),
# and TestCallRetZeroAlloc, which pins a steady-state call/ret cycle under
# either replay's tracers at zero allocations. So does the
# filter-soundness test (each refinement replay's results under its
# compiled actions equal to its results under Generic ones, mcf only
# under -short). That is the set
# the blanket step also runs; it is named here so every differential of
# the emulator and the interpreter reports in one step. Last, four fuzz
# targets run for 10 s each, without the race detector (each input runs on
# one goroutine): the hook-stream target explores new random modules,
# arguments and step budgets, FuzzMiniC feeds inline mini-C (the daemon's
# untrusted source) through the whole compiler, FuzzJobDigest checks
# that normalizing a daemon job twice changes neither the job nor its
# digest, and FuzzDecode feeds arbitrary bytes to the instruction decoder
# (decode, encode, decode must agree).
check_race_differentials() {
    go test -race -run 'TestSuperblock|TestStepInterleavesWithRun|TestTraceMatchesStepwise' -count=1 \
        ./internal/machine/ ./internal/tracer/
    go test -race -short -run 'TestHookStream|TestCallRetZeroAlloc' -count=1 ./internal/irexec/
    go test -race -short -run 'TestReplayFilterSound' -count=1 ./internal/core/
    go test -run '^$' -fuzz '^FuzzHookStream$' -fuzztime 10s ./internal/irexec/
    go test -run '^$' -fuzz '^FuzzMiniC$' -fuzztime 10s ./internal/minicc/
    go test -run '^$' -fuzz '^FuzzJobDigest$' -fuzztime 10s ./internal/serve/
    go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/isa/
}
step "superblock and hook-stream differentials (-race)" check_race_differentials

# Bench smoke: one iteration of every interpreter/emulator micro-benchmark.
# Catches benchmarks that stop compiling or crash. The smoke numbers go to
# a scratch copy, never the committed artifact: 1-iteration timings are
# noise, and the committed BENCH_interp.json holds only full-protocol runs
# (bench.sh). benchjson -check then validates both files' structure so a
# malformed artifact fails CI instead of being published.
check_bench() {
    cp BENCH_interp.json /tmp/wytiwyg-bench-smoke.json
    go test -bench=. -benchtime=1x -run '^$' \
        ./internal/machine/ ./internal/irexec/ |
        go run ./cmd/benchjson -mode smoke -o /tmp/wytiwyg-bench-smoke.json
    # The analysis, replay and optimizer benchmarks only have to keep compiling
    # and running; their smoke numbers go nowhere (bench.sh publishes the full-protocol ones).
    go test -bench='VSAAnalyze' -benchtime=1x -run '^$' ./internal/vsa/ >/dev/null
    go test -bench='Replay$|Optimize$' -benchtime=1x -run '^$' ./internal/core/ >/dev/null
    go run ./cmd/benchjson -check -o /tmp/wytiwyg-bench-smoke.json
    go run ./cmd/benchjson -check -o BENCH_interp.json
}
step "bench smoke" check_bench

# Ablation smoke: the optimizer-variant table plus the +vsa/+types/+static
# analysis columns, on one small program. Every variant's recompiled binary
# is checked against the original's output inside the run.
step "ablation smoke" go run ./cmd/experiments -exp ablation -progs mcf -scale 2

# Partial-coverage smoke: static recovery of untraced code end to end.
# examples/coverage (run above) performs the differential check against the
# original binary; this step re-runs the acceptance tests for the admission
# rate, determinism across worker counts, and the cache-key split.
step "partial-coverage smoke" go test -run 'TestStaticRecover' -count=1 ./internal/core/

# Serve smoke: the recompilation daemon end to end. Start a daemon on a
# throwaway unix socket and cache, submit the same recompile job twice, and
# check (a) the repeat submission is answered warm from the shared cache,
# and (b) both the cold and the warm payloads are byte-identical to the
# same job run in-process (`submit -local`) — the determinism invariant
# observed at the serving surface. Then the same for a lint job, which
# pins the lint diagnostics across serving paths. Then drain gracefully.
check_serve() {
    go build -o /tmp/wytiwyg-ci ./cmd/wytiwyg
    d=$(mktemp -d /tmp/wytiwyg-ci-serve.XXXXXX)
    sock="unix:$d/d.sock"
    /tmp/wytiwyg-ci serve -addr "$sock" -cache-dir "$d/cache" >"$d/serve.log" 2>&1 &
    pid=$!
    trap 'kill "$pid" 2>/dev/null || true; rm -rf "$d"' EXIT
    i=0
    until /tmp/wytiwyg-ci submit -addr "$sock" -ping >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve smoke: daemon never became ready" >&2
            cat "$d/serve.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    for kind in recompile lint; do
        /tmp/wytiwyg-ci submit -addr "$sock" -kind $kind -bench mcf -json >"$d/cold.json" 2>"$d/cold.err"
        /tmp/wytiwyg-ci submit -addr "$sock" -kind $kind -bench mcf -json >"$d/warm.json" 2>"$d/warm.err"
        if ! grep -q '^stats: warm' "$d/warm.err"; then
            echo "serve smoke: repeat $kind submission was not served warm" >&2
            cat "$d/warm.err" >&2
            exit 1
        fi
        /tmp/wytiwyg-ci submit -local -kind $kind -bench mcf -json >"$d/local.json" 2>/dev/null
        if ! diff "$d/cold.json" "$d/warm.json" || ! diff "$d/cold.json" "$d/local.json"; then
            echo "serve smoke: $kind payload differs between cold/warm/local runs" >&2
            exit 1
        fi
    done
    /tmp/wytiwyg-ci submit -addr "$sock" -shutdown >/dev/null
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve smoke: daemon did not exit after shutdown" >&2
            exit 1
        fi
        sleep 0.1
    done
    trap - EXIT
    rm -rf "$d"
}
step "serve smoke" check_serve

echo "ci: all checks passed"
