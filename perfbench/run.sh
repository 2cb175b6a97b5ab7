#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
# Build outputs and run records go to .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
