#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# temporary job stores) stays under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here
# too. The module has no dependencies, so nothing is ever downloaded.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
