#!/bin/sh
# loc.sh — code lines per Go package: non-blank lines of non-test .go files
# that are not // comments.
# Usage: scripts/loc.sh [-r REV] [dir...]
#   With no directories it counts every package directory of the
#   repository; otherwise the given directories. The last line is the total.
#   -r REV also counts each directory at the git revision REV (exported with
#   `git archive` into a temporary directory, removed on exit) and prints
#   REV's count next to the working tree's: parent → change in one table.
set -eu

cd "$(dirname "$0")/.."

rev=
if [ "${1:-}" = "-r" ]; then
    [ $# -ge 2 ] || { echo "usage: scripts/loc.sh [-r REV] [dir...]" >&2; exit 2; }
    rev=$2
    shift 2
fi

# packages ROOT prints ROOT's package directories, relative to ROOT.
packages() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' \
        -exec dirname {} \; | sed 's|^\./||')
}

# count ROOT DIR prints the code lines of package DIR under ROOT (0 when
# DIR does not exist there).
count() {
    if [ ! -d "$1/$2" ]; then
        echo 0
        return
    fi
    find "$1/$2" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
        awk '{ sub(/^[ \t]+/, "") } $0 != "" && $0 !~ /^\/\// { n++ } END { print n + 0 }'
}

if [ -z "$rev" ]; then
    [ $# -gt 0 ] || set -- $(packages . | sort -u)
    total=0
    for dir in "$@"; do
        n=$(count . "$dir")
        printf '%6d  %s\n' "$n" "$dir"
        total=$((total + n))
    done
    printf '%6d  total\n' "$total"
    exit 0
fi

git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" | tar -x -C "$tmp"
[ $# -gt 0 ] || set -- $( (packages "$tmp"; packages .) | sort -u)

printf '%8s  %8s  %s\n' "$rev" "tree" "package"
old_total=0
new_total=0
for dir in "$@"; do
    old=$(count "$tmp" "$dir")
    new=$(count . "$dir")
    printf '%8d  %8d  %s\n' "$old" "$new" "$dir"
    old_total=$((old_total + old))
    new_total=$((new_total + new))
done
printf '%8d  %8d  total\n' "$old_total" "$new_total"
