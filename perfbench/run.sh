#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ycsb-c --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files all stay under
# .bench_build/ in the current directory. The build needs the parent
# module (../go.mod), so the script fails when run without the rest of
# the repository.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
