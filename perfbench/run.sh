#!/usr/bin/env bash
# Builds golclint and perfbench from the checkout in the current
# directory, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload edit-loop --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binaries, and the generated projects and cache directories.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/golclint || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a golclint checkout" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -o "$out/bin/golclint" ./cmd/golclint
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/golclint" -work "$out/work" -root "$root" "$@"
