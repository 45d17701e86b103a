#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it with the given arguments. Everything the build and the run write
# (Go build cache, binary, Chrome traces) stays under .bench_build/.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
out=$(dirname "$bench")/.bench_build
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS=
go -C "$bench" build -o "$out/eslurm-bench" .
exec "$out/eslurm-bench" "$@"
