#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Build outputs, the Go build cache and scratch stores
# stay under .bench_build/ in the working directory, and no module is
# ever fetched: the benchmark depends only on the repository itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
