#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Run from the repository root:
#   bash pipebench/run.sh --workload corpus-replay --seed 1 --seconds 20 --trace 0
# The Go build cache, the binary, the daemon's scratch files and the trace
# files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go -C pipebench build -o "$build/pipebench" .
exec "$build/pipebench" --out-dir "$build" "$@"
