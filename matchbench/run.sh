#!/usr/bin/env bash
# Builds the match-service benchmark from this checkout's sources and runs
# it. Run from the repository root; arguments pass through, e.g.
#   bash matchbench/run.sh --workload cold-suite --seed 1 --seconds 10 --trace 0
# Every build and scratch file stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off
(cd "$root/matchbench" && go build -o "$build/matchbench" .)
exec "$build/matchbench" --root "$root" "$@"
