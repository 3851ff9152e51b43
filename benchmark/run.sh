#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload engine-hotpath --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and all temporary files stay
# under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$build/simbench-benchmark" .)
exec "$build/simbench-benchmark" "$@"
