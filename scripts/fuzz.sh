#!/bin/sh
# fuzz.sh — run every native fuzz target of the module for a short while.
# Usage: scripts/fuzz.sh [fuzztime]   (default 5s)
# `go test ./...` only replays each target's seed corpus; this script
# mutates inputs. The target list comes from `go test -list`, so a new Fuzz
# function joins without editing this file. A failing input is written to
# the package's testdata/fuzz directory, where `go test` replays it.
set -eu

cd "$(dirname "$0")/.."
fuzztime=${1:-5s}

targets=$(go test -list '^Fuzz' ./... | awk '
    /^Fuzz/ { names[n++] = $1; next }
    /^ok/   { for (i = 0; i < n; i++) print $2 " " names[i]; n = 0 }')
if [ -z "$targets" ]; then
    echo "fuzz.sh: no fuzz targets found" >&2
    exit 1
fi
echo "$targets" | while read -r pkg name; do
    echo "== fuzz $name ($pkg, $fuzztime)"
    go test -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime" "$pkg"
done
