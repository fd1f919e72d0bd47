#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload schema-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
