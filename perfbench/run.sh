#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's source and runs it with
# the given arguments. Run from the root of a checkout:
#
#	bash perfbench/run.sh --workload table7 --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache) lands under .bench_build/ in
# the checkout, so the run writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Go keeps its config and telemetry counters under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
