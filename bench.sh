#!/bin/sh
# Opt-in full benchmark harness. CI only smoke-tests the benchmarks (one
# iteration, crash check — see ci.sh); this script produces the numbers
# that are actually published in BENCH_interp.json, using the full
# protocol benchjson enforces:
#
#   - a fixed -benchtime (iteration count, not wall time, so every sample
#     does identical work and samples are comparable),
#   - at least 3 samples per benchmark (-count; default 6 here),
#   - min/mean/stddev/max recorded per benchmark, speedups computed from
#     the min (scheduler noise on a shared box is strictly additive, so
#     the smallest sample is the least-contaminated estimate),
#   - interleaved samples: the test binaries are built once, then COUNT
#     rounds each take one sample (-test.count=1) of every benchmark in
#     turn, so every benchmark's samples spread over the whole run instead
#     of one contiguous window whose host load decides its min.
#
# The value-set analysis benchmark (BenchmarkVSAAnalyze) analyzes a whole
# refined program per iteration, the refinement-replay benchmark
# (BenchmarkReplay) replays one and the optimizer benchmark
# (BenchmarkOptimize) optimizes one, so they run under their own, much
# smaller fixed -benchtime (20x) and are fed to the same benchjson run:
# the artifact holds only `go test -bench` numbers.
#
# Environment knobs: COUNT (samples per benchmark), BENCHTIME (go test
# -benchtime value for the interpreter/emulator benchmarks). Run on an
# otherwise-idle machine.
set -eu

cd "$(dirname "$0")"

COUNT=${COUNT:-6}
BENCHTIME=${BENCHTIME:-2000000x}

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for pkg in machine irexec vsa core; do
    go test -c -o "$bin/$pkg.test" "./internal/$pkg/"
done

echo "== bench: ${COUNT} interleaved rounds x ${BENCHTIME} (analyses, replay and optimizer: x 20x)"
i=0
while [ "$i" -lt "$COUNT" ]; do
    for pkg in machine irexec; do
        "$bin/$pkg.test" -test.run '^$' -test.bench . -test.benchtime "$BENCHTIME" -test.count 1
    done
    "$bin/vsa.test" -test.run '^$' -test.bench 'VSAAnalyze' -test.benchtime 20x -test.count 1
    "$bin/core.test" -test.run '^$' -test.bench 'Replay$|Optimize$' -test.benchtime 20x -test.count 1
    i=$((i + 1))
done | go run ./cmd/benchjson -mode full -o BENCH_interp.json

echo "== bench: validate"
go run ./cmd/benchjson -check -o BENCH_interp.json

echo "bench: BENCH_interp.json updated"
