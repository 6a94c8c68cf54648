#!/usr/bin/env bash
# Builds the perfbench program and the regenserve binary from the source tree
# this script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload warm_rrl --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binaries, span files) goes
# under .bench_build/ at the root of the tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root/perfbench" build -o "$out/regenserve" regenrand/cmd/regenserve

cd "$root"
exec "$out/perfbench" -server "$out/regenserve" -out "$out" "$@"
