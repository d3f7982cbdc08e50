#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ipv4-64B --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and
# temporary file goes under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
