#!/usr/bin/env bash
# BENCHMARK.json's command. The driver calls
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of a checkout. Everything the build and the run write stays
# inside that checkout: the Go caches, temp files and the binary under
# .bench_build, generated inputs and durable state under .bench_work
# (removed after each run).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
  echo "bench/run.sh: no repository around bench/: the benchmark builds the program from source" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -o "$build/bench" ./bench
exec "$build/bench" run -workdir .bench_work "$@"
