#!/usr/bin/env bash
# Builds the benchmark binary from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload catalogue --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, build cache, temp files) stays under
# .bench_build/ in the checkout; a rebuild with an unchanged tree is a cache
# hit, so only the first run of a checkout pays for compilation, and the
# build never counts towards the benchmark's own set-up time.
set -euo pipefail

# The default location of the official Go distribution, for shells whose
# PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
