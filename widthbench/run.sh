#!/usr/bin/env bash
# Builds the width-service benchmark and runs it with the given flags:
#
#   bash widthbench/run.sh --workload corpus-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build product, the Go build cache
# and the span dumps stay under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root/widthbench" -o "$out/widthbench" .
exec "$out/widthbench" "$@"
