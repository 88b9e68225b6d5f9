#!/bin/sh
# pairs.sh — before/after perfbench measurement in alternating pairs.
#
# Usage: scripts/pairs.sh [-n] REV [workloads] [seeds] [pairs]
#
#   REV       the parent revision (any git revision name)
#   workloads comma-separated BENCHMARK.json workloads, or all for every
#             one in BENCHMARK.json's order (default live-replay)
#   seeds     comma-separated seeds (default 1,2: the development seed and
#             the held-out seed)
#   pairs     pairs per seed (default 10)
#   -n        check the arguments, print the plan and self-test the
#             summary arithmetic and the workload list; build and run
#             nothing
#
# PAIRS_SECONDS sets perfbench's --seconds (default 10, BENCHMARK.json's
# run_seconds). Run from anywhere inside the repository.
#
# It exports REV with `git archive` into a temporary directory and builds
# perfbench there and from the working tree (uncommitted edits included),
# with the same toolchain settings as perfbench/run.sh. It then runs, per
# workload in turn and per seed, N pairs of untraced runs, alternating
# which side goes first, and prints every end-to-end metric of
# BENCHMARK.json as
#
#   metric: parent median [q1, q3] -> change median [q1, q3], delta, won/N pairs, parent IQR
#
# Quartiles interpolate linearly between order statistics. A pair is won
# when the change is strictly better in the metric's direction. The outcome
# digests and every run's `correct` flag are checked and reported, and the
# exit status is 1 when a run of any workload is not correct. The temporary
# directory, binaries and Go caches included, is removed on exit.
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
seeds=$(echo "${3:-1,2}" | tr ',' ' ')
pairs=${4:-10}
secs=${PAIRS_SECONDS:-10}

fail() {
	echo "pairs.sh: $*" >&2
	exit 2
}

# names prints BENCHMARK.json's workload names, one a line, in its order.
names() {
	awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
		on && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n); print n }' "$root/BENCHMARK.json"
}

# expand prints the workloads a list names, space-separated: all, or a
# comma-separated list of BENCHMARK.json workloads. It fails on an empty
# entry or an unknown name.
expand() {
	if [ "$1" = all ]; then
		names | tr '\n' ' ' | sed 's/ $//'
		return
	fi
	out=
	for w in $(echo "$1" | tr ',' ' '); do
		names | grep -qx "$w" || {
			echo "no workload $w in BENCHMARK.json" >&2
			return 1
		}
		out="$out${out:+ }$w"
	done
	case ",$1," in *,,*) echo "empty entry in workload list $1" >&2; return 1 ;; esac
	echo "$out"
}

commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || fail "unknown revision $rev"
workloads=$(expand "${2:-live-replay}") || fail "bad workload list ${2:-live-replay}"
case $pairs in '' | *[!0-9]* | 0) fail "pairs must be a positive integer, got $pairs" ;; esac
for s in $seeds; do
	case $s in *[!0-9]*) fail "seeds must be non-negative integers, got $s" ;; esac
done

# directions prints "metric higher|lower" for each end-to-end metric.
directions() {
	awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
		on && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n) }
		on && /"better"/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print n, b }' "$root/BENCHMARK.json"
}

# summarize reads "metric direction" lines, then "--", then result rows
# "seed pair side metric value" (side parent or change), and prints one
# line per seed and metric.
summarize() {
	awk '
	function fmt(v) {
		if (v < 0) return "-" fmt(-v)
		if (v < 1000) return sprintf("%.5g", v)
		v = sprintf("%.0f", v)
		s = ""
		while (length(v) > 3) { s = "," substr(v, length(v) - 2) s; v = substr(v, 1, length(v) - 3) }
		return v s
	}
	function sort(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	function q(a, n, p,    h, l) {
		h = (n - 1) * p + 1; l = int(h)
		return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
	}
	function quart(side, seed, m, out,    i, n, a) {
		n = cnt[seed]
		for (i = 1; i <= n; i++) a[i] = val[seed, i, side, m]
		sort(a, n)
		out[1] = q(a, n, 0.25); out[2] = q(a, n, 0.5); out[3] = q(a, n, 0.75)
	}
	stage == 0 && $0 == "--" { stage = 1; next }
	stage == 0 { dir[++nm] = $2; name[nm] = $1; next }
	{
		if (!($1 in cnt)) seedOrder[++ns] = $1
		val[$1, $2, $3, $4] = $5
		if ($2 > cnt[$1]) cnt[$1] = $2
	}
	END {
		for (k = 1; k <= ns; k++) {
			seed = seedOrder[k]; n = cnt[seed]
			printf "seed %s, %d pairs\n", seed, n
			for (m = 1; m <= nm; m++) {
				if (!((seed, 1, "parent", name[m]) in val)) continue
				quart("parent", seed, name[m], p); quart("change", seed, name[m], c)
				won = 0
				for (i = 1; i <= n; i++) {
					x = val[seed, i, "parent", name[m]]; y = val[seed, i, "change", name[m]]
					if ((dir[m] == "higher" && y > x) || (dir[m] == "lower" && y < x)) won++
				}
				delta = p[2] == 0 ? (c[2] == 0 ? "+0.0%" : "n/a") : sprintf("%+.1f%%", (c[2] / p[2] - 1) * 100)
				printf "  %s (%s is better): %s [%s, %s] -> %s [%s, %s], %s, %d/%d pairs, parent IQR %s\n",
					name[m], dir[m], fmt(p[2]), fmt(p[1]), fmt(p[3]), fmt(c[2]), fmt(c[1]), fmt(c[3]),
					delta, won, n, fmt(p[3] - p[1])
			}
		}
	}'
}

# selftest checks summarize on a fixed table (4 pairs, change ahead in 3)
# and expand on the list forms.
selftest() {
	got=$(printf '%s\n' "txn_per_s higher" "bytes_per_txn lower" "--" \
		"1 1 parent txn_per_s 1000" "1 1 change txn_per_s 1200" \
		"1 2 parent txn_per_s 1100" "1 2 change txn_per_s 1000" \
		"1 3 parent txn_per_s 900" "1 3 change txn_per_s 1300" \
		"1 4 parent txn_per_s 1000" "1 4 change txn_per_s 1260" \
		"1 1 parent bytes_per_txn 104.1" "1 1 change bytes_per_txn 104.1" \
		"1 2 parent bytes_per_txn 104.1" "1 2 change bytes_per_txn 104.1" \
		"1 3 parent bytes_per_txn 104.1" "1 3 change bytes_per_txn 104.1" \
		"1 4 parent bytes_per_txn 104.1" "1 4 change bytes_per_txn 104.1" | summarize)
	want="seed 1, 4 pairs
  txn_per_s (higher is better): 1,000 [975, 1,025] -> 1,230 [1,150, 1,270], +23.0%, 3/4 pairs, parent IQR 50
  bytes_per_txn (lower is better): 104.1 [104.1, 104.1] -> 104.1 [104.1, 104.1], +0.0%, 0/4 pairs, parent IQR 0"
	if [ "$got" != "$want" ]; then
		printf 'pairs.sh: summary self-test failed:\n%s\nwant:\n%s\n' "$got" "$want" >&2
		exit 1
	fi
	all=$(names | tr '\n' ' ' | sed 's/ $//')
	if [ "$(echo "$all" | wc -w)" -lt 2 ]; then
		echo "pairs.sh: workload list self-test found fewer than two workloads in BENCHMARK.json" >&2
		exit 1
	fi
	first=${all%% *}
	last=${all##* }
	for c in "all|$all" "$first|$first" "$last,$first|$last $first" "$(echo "$all" | tr ' ' ',')|$all" \
		"no-such-workload|" "$first,|" ",$first|" "$first,,$last|"; do
		arg=${c%%|*}
		want=${c#*|}
		got=$(expand "$arg" 2>/dev/null) || got=
		if [ "$got" != "$want" ]; then
			printf 'pairs.sh: workload list self-test failed on "%s": got "%s", want "%s"\n' "$arg" "$got" "$want" >&2
			exit 1
		fi
	done
}

selftest
echo "# pairs: $workloads; seeds $seeds, $pairs pairs each, --seconds $secs"
echo "# parent $rev ($(git -C "$root" rev-parse --short "$commit")), change: the working tree"
if [ "$dry" = 1 ]; then
	echo "# -n: summary and workload list self-tests passed; nothing built or run"
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir -p "$tmp/parent" "$tmp/tmp"
git -C "$root" archive "$commit" | tar -x -C "$tmp/parent"

# The toolchain settings of perfbench/run.sh, with the caches in $tmp.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off \
	GOCACHE="$tmp/gocache" GOPATH="$tmp/gopath" GOMODCACHE="$tmp/gopath/pkg/mod" GOTMPDIR="$tmp/tmp"
(cd "$tmp/parent/perfbench" && go build -o "$tmp/bin-parent" .) >&2 || fail "parent build failed"
(cd "$root/perfbench" && go build -o "$tmp/bin-change" .) >&2 || fail "working tree build failed"

# run WORKLOAD SIDE SEED PAIR runs one side's binary and appends its
# metrics.
run() {
	out="$tmp/out-$1-$2-$3-$4"
	(cd "$tmp" && "$tmp/bin-$2" --workload "$1" --seed "$3" --seconds "$secs" --trace 0) >"$out" 2>&1 || true
	tail -n 1 "$out" | grep -q '^{"correct":true,' || echo "$1 $2 seed $3 pair $4: not correct (see below)" >>"$tmp/failures"
	sed -n 's/^# outcome digest //p' "$out" | sed "s/^/$3 $2 /" >>"$tmp/digests"
	tail -n 1 "$out" | awk -v pre="$3 $4 $2" '{
		s = $0
		while (match(s, /"[a-z0-9_]+":\{"value":[-+0-9.eE]+/)) {
			m = substr(s, RSTART + 1, RLENGTH - 1); s = substr(s, RSTART + RLENGTH)
			k = m; sub(/".*/, "", k); v = m; sub(/.*:/, "", v)
			print pre, k, v
		}
	}' >>"$tmp/rows"
}

# measure WORKLOAD runs the workload's pairs and prints its summary and
# digest checks.
measure() {
	: >"$tmp/rows"
	: >"$tmp/digests"
	for seed in $seeds; do
		i=1
		while [ "$i" -le "$pairs" ]; do
			if [ $((i % 2)) = 1 ]; then
				run "$1" parent "$seed" "$i"
				run "$1" change "$seed" "$i"
			else
				run "$1" change "$seed" "$i"
				run "$1" parent "$seed" "$i"
			fi
			echo "# $1 seed $seed pair $i/$pairs done" >&2
			i=$((i + 1))
		done
	done

	echo "## $1"
	{
		directions
		echo --
		cat "$tmp/rows"
	} | summarize
	for seed in $seeds; do
		p=$(awk -v s="$seed" '$1 == s && $2 == "parent" { print $3 }' "$tmp/digests" | sort -u | tr '\n' ' ' | sed 's/ $//')
		c=$(awk -v s="$seed" '$1 == s && $2 == "change" { print $3 }' "$tmp/digests" | sort -u | tr '\n' ' ' | sed 's/ $//')
		if [ "$p" = "$c" ]; then
			echo "seed $seed outcome digests identical: $p"
		else
			echo "seed $seed outcome digests differ: parent $p, change $c"
		fi
	done
}

: >"$tmp/failures"
for w in $workloads; do
	measure "$w"
done
if [ -s "$tmp/failures" ]; then
	cat "$tmp/failures"
	for f in "$tmp"/out-*; do
		tail -n 1 "$f" | grep -q '^{"correct":true,' || { echo "== $f"; cat "$f"; }
	done
	exit 1
fi
echo "every run correct: true"
