#!/bin/sh
# check.sh — the full gate; CI runs exactly this script.
# Usage: scripts/check.sh [short]
#   short: skip the full -race pass, the -count 2 race hammers, the fuzz
#   smoke and the parallel speedup gate (quick pre-commit loop)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# The allocation and byte guards on their own, one package at a time: a
# guard that passes only after the rest of its package ran (and warmed the
# runtime for it) fails here.
echo "== allocation and byte guards (alone)"
go test -count=1 -run 'Allocs|Bytes' ./...

if [ "${1:-}" = "short" ]; then
    echo "== go test (short)"
    go test -short ./...
    # Even the quick loop races the HTTP endpoints (/metrics, /events,
    # /api/*) against a live replay — including the fault-injection hammer,
    # which shares the admission controller between the submit gate and the
    # replay goroutine. Both hammers are small and fast.
    echo "== go test -race (endpoint + fault + staged-event + contention + slo hammers)"
    go test -race -run Hammer ./internal/server ./internal/obs ./internal/contention ./internal/slo
    # The executor's Stats/Probe and the fleet's Status/Health read the
    # engine under the lock its replay goroutine releases while it paces.
    echo "== go test -race (executor + fleet live-read hammers)"
    go test -race -run 'Hammer|Concurrent|FaultReplay' ./internal/executor ./internal/cluster
else
    echo "== go test"
    go test ./...
    echo "== go test -race"
    go test -race ./...
    # The hammers again, twice each under the race detector: one pass of
    # go test -race ./... is too few interleavings to trust.
    echo "== endpoint + SSE hammer (-race)"
    go test -race -run Hammer -count 2 ./internal/server
    echo "== staged event path hammer (-race)"
    go test -race -run Hammer -count 2 ./internal/obs
    echo "== fault-injection + live-read hammer (-race)"
    go test -race -run 'FaultHammer|FaultReplay|Concurrent' -count 2 ./internal/server ./internal/executor ./internal/cluster
    echo "== cluster failover hammer (-race)"
    go test -race -run ClusterHammer -count 2 ./internal/server
    echo "== contention hammer (-race)"
    go test -race -run Hammer -count 2 ./internal/contention
    echo "== slo alert-engine hammer (-race)"
    go test -race -run 'SLOHammer|ServerSLO|ClusterFleet' -count 2 ./internal/slo ./internal/server
    echo "== parallel runner hammer (-race)"
    go test -race -count 2 ./internal/runner
fi

# perfbench/ is a nested module: the root ./... patterns never reach it.
echo "== benchmark module (vet + smoke runs + traced == untraced digests)"
(cd perfbench && go vet ./... && go test ./...)

# The measurement scripts build and run nothing here: -n checks their
# arguments (pairs.sh also self-tests its summary arithmetic), so they
# cannot rot. loc.sh only counts, so it runs in full against HEAD.
echo "== pairs.sh dry run"
scripts/pairs.sh -n HEAD
echo "== figures.sh dry run"
scripts/figures.sh -n HEAD
echo "== loc.sh against HEAD"
loc=$(scripts/loc.sh -r HEAD)
echo "$loc" | tail -n 1

echo "== asetslint"
go run ./cmd/asetslint ./...

if [ "${1:-}" != "short" ]; then
    echo "== fuzz smoke (every native fuzz target, 5s each)"
    scripts/fuzz.sh 5s

    # Alone and last, so the wall-clock speedup gate (enforced at >= 4 CPUs)
    # is not measured next to other packages' tests.
    echo "== parallel runner speedup gate"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go run ./cmd/asetsbench -parallel-bench "$tmp/BENCH_parallel.json" -n 300 -seeds 2
fi

echo "all checks passed"
