#!/usr/bin/env bash
# Builds and runs the serving benchmark (bench/lbbench). Run it from the
# repository root; arguments go to lbbench, e.g.
#
#   bash bench/run.sh --workload rebid-hot --seed 1 --seconds 32 --trace 0
#
# The toolchain runs offline, and its build cache, temporary files and
# configuration stay under .bench_build in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
go -C bench build -o "$build/lbbench" ./lbbench
exec "$build/lbbench" "$@"
