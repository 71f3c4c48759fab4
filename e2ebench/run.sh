#!/usr/bin/env bash
# Builds the end-to-end benchmark from this source tree and runs it with
# the given arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload hot-mixed --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the compiler's temporary files and the binary live
# under .bench_build/ so nothing is written outside the tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
