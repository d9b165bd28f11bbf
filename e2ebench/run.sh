#!/usr/bin/env bash
# Builds the end-to-end replica benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload tpcc-row --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, the durable replica's files and traces
# all stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -workdir "$out" "$@"
