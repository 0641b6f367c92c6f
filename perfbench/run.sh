#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, else .bench_build) of the checkout: the
# Go build cache, the binary and the traced run's spans.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out" "$@"
