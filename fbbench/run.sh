#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash fbbench/run.sh --workload fb1k-seq --seed 1 --seconds 15 --trace 0
#
# The Go build and module caches live under .bench_build/ too, so a run
# reads and writes nothing outside the checkout but the Go toolchain.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C fbbench build -o "$out/fbbench" . >&2
exec "$out/fbbench" "$@"
