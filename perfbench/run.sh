#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload laplace --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write goes under the build directory
# ($CARGO_TARGET_DIR when set, .bench_build otherwise): the Go build
# cache, the binary, span dumps and the full per-run result files.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
# Build offline with the installed toolchain: the module has no external
# dependencies and the benchmark must never fetch anything.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
