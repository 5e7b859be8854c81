#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dnn_log --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, stores, traces) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
