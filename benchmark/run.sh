#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it writes
# inside the checkout: the binary and the Go build cache go to .bench_build/,
# traces to benchmark/out/. Arguments are passed on; see README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
