#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it with the given arguments. Everything the build writes
# (binary, Go build cache, temporary files) stays inside the checkout.
#
#   bash bench/run.sh --workload chol_tcp --seed 7 --seconds 15 --trace 0
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Everything the go command writes goes under .bench_build: build cache,
# temporary files, and (through XDG_CONFIG_HOME and GOPATH) its telemetry
# counters and module cache. No network, no toolchain download.
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$bench_dir" && go build -o "$build/jadebench" .)
cd "$root"
exec "$build/jadebench" "$@"
