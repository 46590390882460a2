#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash hlfibench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/hlfibench" && go build -buildvcs=false -o "$build/hlfibench" .)
exec "$build/hlfibench" --scratch "$build/scratch" "$@"
