#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the arguments
# given. Run from the root of a checkout:
#
#   bash bench/run.sh --workload ingest-zipf --seed 1 --seconds 12 --trace 0
#
# Everything the build writes — binary, Go build cache, temporary files, the
# toolchain's telemetry counters (which follow XDG_CONFIG_HOME) — stays under
# .bench_build in the checkout. The module has no dependencies outside the
# repository, so the build needs no network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off

# bench/ is a module of its own that imports the repository's internal
# packages through a replace directive; go build is a no-op when the
# binary is already up to date.
(cd bench && XDG_CONFIG_HOME="$build/config" go build -o "$build/hetbench" .)
exec "$build/hetbench" "$@"
