#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload classic-sim --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, serve
# checkpoints, span logs) lands under .bench_build/perfbench in the current
# directory. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
