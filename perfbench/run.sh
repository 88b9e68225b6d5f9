#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload table1-txn --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go caches stay in .bench_build/ under the current
# directory (or in $CARGO_TARGET_DIR when set), so nothing is written outside
# the checkout. Without the repository's source next to this directory the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off \
	GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp

if ! (cd "$dir" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
