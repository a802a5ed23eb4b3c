#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it from the
# checkout root with the given arguments, e.g.
#
#   bash bench/run.sh --workload ocean2d-i --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live under .bench_build/ at the checkout
# root, so a run reads and writes nothing outside the checkout. Without the
# compressor's sources next to bench/ the build fails and so does this script.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/tspsz-bench" .
cd "$root"
exec "$out/tspsz-bench" "$@"
