#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write stays under .bench_build there: the binary, the build
# cache and the temporary store directories.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# HOME moves the toolchain's config (telemetry counters) in as well.
export HOME="$build/home" GOPATH="$build/home/go"
unset XDG_CONFIG_HOME XDG_CACHE_HOME
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/pgvnbench" .)
exec "$build/pgvnbench" "$@"
