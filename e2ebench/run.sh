#!/usr/bin/env bash
# Builds e2ebench from source and runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory; nothing is fetched (GOPROXY=off:
# every package it builds uses the standard library only).
set -euo pipefail
root=$(pwd)
bench="$root/e2ebench"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$bench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --workdir "$build/work" "$@"
