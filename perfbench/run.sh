#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, WAL and snapshot files, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

bin="$out/perfbench.bin"
(cd "$here" && go build -o "$bin" .)
exec "$bin" --state-dir .bench_build/perfbench "$@"
