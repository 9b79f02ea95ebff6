#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes stays under .bench_build/ in the
# checkout: the Go build cache, GOPATH and the toolchain's own config
# directory are pointed there.
#
#   bash benchmark/run.sh --workload hub_sync --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh                 # all four workloads, both modes
#   bash benchmark/run.sh -quick          # smoke run in seconds
#   bash benchmark/run.sh -compare old.json new.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -buildvcs=false -o "$build/gpnm-benchmark" .
)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
BENCH_COMMIT="$commit" exec "$build/gpnm-benchmark" "$@"
