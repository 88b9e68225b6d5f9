#!/bin/sh
# figures.sh — byte-identity check of the CLIs' outputs against a parent.
#
# Usage: scripts/figures.sh [-n] REV
#
#   REV  the parent revision (any git revision name)
#   -n   check the argument and print the plan; build and run nothing
#
# Run from anywhere inside the repository. It exports REV with
# `git archive` into a temporary directory and builds asetsbench, asetssim
# and workloadgen there and from the working tree (uncommitted edits
# included). Each asetsbench runs
#
#   -figure all -n 300 -seeds 2 -validate -json D -csv D
#
# and every gated bench mode at its TestBenchModes size, except
# -parallel-bench, whose document records wall-clock times. Under cli/,
# each side's workloadgen writes a workload's JSON, -stats and -dot, and
# its asetssim runs one server with -trace -analyze -gantt -timeline (with
# and without a fault plan), -compare, -save, and a contended
# `-policy asets-ca -keys 64 -servers 4 -events` run. Every output file and
# every run's stdout (with a nonzero exit status appended) is compared with
# cmp, slo-bench's allocation measurement masked as TestBenchModes masks
# it, and one verdict is printed per file:
#
#   same | DIFFERS | MISSING  <file>
#
# The exit status is 1 if any file differs or is missing on one side. The
# temporary directory, binaries and outputs included, is removed on exit.
set -eu

root=$(git rev-parse --show-toplevel)
dry=0
if [ "${1:-}" = "-n" ]; then
	dry=1
	shift
fi
case "${1:-}" in
"" | -h | --help)
	sed -n '2,/^set -eu/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
	[ "${1:-}" = "" ] && exit 2
	exit 0
	;;
esac
rev=$1

fail() {
	echo "figures.sh: $*" >&2
	exit 2
}

commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || fail "unknown revision $rev"

# The gated bench modes as flag:n:seeds, at their TestBenchModes sizes.
modes="fault-bench:300:2 cluster-bench:300:3 contention-bench:400:3 slo-bench:300:2"

echo "# figures: parent $rev ($(git -C "$root" rev-parse --short "$commit")), change: the working tree"
echo "# runs: -figure all -n 300 -seeds 2 -validate -json -csv; $modes; asetssim and workloadgen cases under cli/"
if [ "$dry" = 1 ]; then
	echo "# -n: nothing built or run"
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$tmp/src"
git -C "$root" archive "$commit" | tar -x -C "$tmp/src"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
for cmd in asetsbench asetssim workloadgen; do
	(cd "$tmp/src" && go build -o "$tmp/$cmd-parent" "./cmd/$cmd") >&2 || fail "parent build of $cmd failed"
	(cd "$root" && go build -o "$tmp/$cmd-change" "./cmd/$cmd") >&2 || fail "working tree build of $cmd failed"
done

# The fault plan of the faulty asetssim case: aborts, a stall and a crash.
cat >"$tmp/plan.json" <<'PLAN'
{"seed": 7, "abort_prob": 0.2, "max_restarts": 2, "backoff_base": 0.5, "backoff_cap": 4,
 "stalls": [{"start": 50, "duration": 5}, {"start": 120, "duration": 2, "kind": "crash"}]}
PLAN

# cli SIDE NAME CMD ARGS... runs that side's CMD in its cli/ directory, with
# stdout and stderr to NAME.stdout and a nonzero exit status appended.
cli() {
	cdir="$tmp/out-$1/cli"
	cname=$2
	cbin="$tmp/$3-$1"
	shift 3
	(cd "$cdir" && "$cbin" "$@") >"$cdir/$cname.stdout" 2>&1 || echo "exit $?" >>"$cdir/$cname.stdout"
}

# run SIDE writes that side's outputs under $tmp/out-SIDE.
run() {
	bin="$tmp/asetsbench-$1"
	out="$tmp/out-$1"
	mkdir -p "$out/figures"
	(cd "$tmp" && "$bin" -figure all -n 300 -seeds 2 -validate -json "$out/figures" -csv "$out/figures") \
		>"$out/figures.stdout" 2>&1 || echo "exit $?" >>"$out/figures.stdout"
	for m in $modes; do
		flag=${m%%:*}
		rest=${m#*:}
		(cd "$tmp" && "$bin" "-$flag" "$out/$flag.json" -n "${rest%%:*}" -seeds "${rest#*:}") \
			>"$out/$flag.stdout" 2>&1 || echo "exit $?" >>"$out/$flag.stdout"
	done
	for f in "$out"/*.json "$out"/*.stdout; do
		[ -f "$f" ] || continue
		sed -e 's|"slo_allocs_per_txn": [^,]*,|"slo_allocs_per_txn": (masked),|' \
			-e 's|slo-allocs/txn=[-0-9.]*|slo-allocs/txn=(masked)|' "$f" >"$f.masked"
		mv "$f.masked" "$f"
	done
	mkdir -p "$out/cli"
	cli "$1" wg-json workloadgen -n 300 -seed 3 -util 0.9 -wf-len 5 -wf-membership 2 -weights -batch -random-order -o wg.json
	cli "$1" wg-stats workloadgen -n 300 -seed 3 -util 0.9 -wf-len 5 -weights -stats
	cli "$1" wg-dot workloadgen -n 60 -seed 3 -wf-len 4 -wf-membership 2 -dot
	cli "$1" sim-trace asetssim -n 200 -seed 3 -util 0.9 -wf-len 4 -weights -trace -analyze -gantt -timeline sim-trace.json
	cli "$1" sim-faults asetssim -n 200 -seed 3 -util 0.9 -faults "$tmp/plan.json" -trace -analyze -gantt -timeline sim-faults.json
	cli "$1" sim-compare asetssim -n 200 -seed 3 -util 0.9 -wf-len 3 -weights -compare
	cli "$1" sim-save asetssim -n 150 -seed 5 -util 0.7 -wf-len 3 -batch -random-order -save sim-save.json
	cli "$1" sim-keys asetssim -policy asets-ca -keys 64 -servers 4 -util 3.2 -n 300 -seed 3 -events sim-keys.jsonl
}

run parent
run change

status=0
total=0
{
	(cd "$tmp/out-parent" && find . -type f)
	(cd "$tmp/out-change" && find . -type f)
} | sed 's|^\./||' | sort -u >"$tmp/files"
while read -r f; do
	total=$((total + 1))
	if [ ! -f "$tmp/out-parent/$f" ] || [ ! -f "$tmp/out-change/$f" ]; then
		echo "MISSING  $f"
		status=1
	elif cmp -s "$tmp/out-parent/$f" "$tmp/out-change/$f"; then
		echo "same     $f"
	else
		echo "DIFFERS  $f"
		status=1
	fi
done <"$tmp/files"
if [ "$status" = 0 ]; then
	echo "# all $total files byte-identical"
else
	echo "# some of $total files differ or are missing"
fi
exit "$status"
