#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep the Go build cache inside the checkout, and never fetch a toolchain.
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
