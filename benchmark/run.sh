#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload serve-read --seed 3 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache,
# binaries, scratch data, result files) stays under .bench_build/ at
# the repository root, and no module is fetched from the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
