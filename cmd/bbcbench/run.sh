#!/usr/bin/env bash
# run.sh — build bbcbench and the bbcserved worker from source, then run
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash cmd/bbcbench/run.sh --workload scan-gadget --seed 1 --seconds 20 --trace 0
#   bash cmd/bbcbench/run.sh --seed 1 --out result.json     # all four workloads
#
# Everything the build and the run write stays under one directory,
# $CARGO_TARGET_DIR when set (the name is the benchmark harness's
# convention), else .bench_build: the Go build cache, the binaries, and the
# stores and data directories of the workloads.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local
export GOENV=off

(cd cmd/bbcbench && go build -o "$build/bin/bbcbench" .)
go build -o "$build/bin/bbcserved" ./cmd/bbcserved

exec "$build/bin/bbcbench" --bbcserved "$build/bin/bbcserved" --work "$build/work" "$@"
