#!/usr/bin/env bash
# Builds the perfbench command and cmd/sheetserver from this checkout into
# .bench_build, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$build/perfbench" .
go -C perfbench build -o "$build/sheetserver" sheetmusiq/cmd/sheetserver
exec "$build/perfbench" -root "$root" -server "$build/sheetserver" "$@"
