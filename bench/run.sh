#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness into .bench_build
# (with the Go build cache there too, so nothing is written outside the
# checkout) and hands it the arguments. The harness builds gossipsim and
# gossipd itself and reports that time as proc.build_s.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
go build -C bench -o "$build/bin/gossipbench" .
exec "$build/bin/gossipbench" "$@"
