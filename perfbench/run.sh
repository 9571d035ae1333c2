#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it runs in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mpeg-paper --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout: the Go build cache, the harness binary
# and the daemon workload's checkpoint and event directories.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
