#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. From the root
# of the checkout:
#
#   bash perfbench/run.sh --workload spend-l100 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file of the build stay
# under $CARGO_TARGET_DIR, or .bench_build when it is unset.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
