#!/bin/sh
# loc.sh — code lines per Go package: non-blank lines of non-test .go files
# that are not // comments.
# Usage: scripts/loc.sh [dir...]
#   With no arguments it counts every package directory of the repository;
#   otherwise the given directories. The last line is the total.
set -eu

cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    set -- $(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' \
        -exec dirname {} \; | sed 's|^\./||' | sort -u)
fi

total=0
for dir in "$@"; do
    n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
        awk '{ sub(/^[ \t]+/, "") } $0 != "" && $0 !~ /^\/\// { n++ } END { print n + 0 }')
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
