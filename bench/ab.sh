#!/bin/sh
# Interleaved A/B of the repository benchmark between two commits.
#
#   bench/ab.sh BASE CHANGE [PAIRS] [WORKLOAD...]
#
# Builds the benchmark once per side from a git worktree of that commit,
# with this checkout's bench/ copied in so that both sides run identical
# benchmark code, then runs PAIRS (default 10) pairs of each workload,
# alternating which side goes first; pair i uses --seed i on both sides.
# For every workload x metric it prints each side's median and quartiles
# (the exclusive method of Python's statistics.quantiles), the median
# delta, how many pairs CHANGE won (ties count for neither) and whether
# the claim rule holds: one side wins at least 9 of every 10 pairs and the
# medians differ by more than BASE's interquartile range ("gain" or
# "loss"; "-" otherwise). The two runs of a pair are back to back, so
# pairing controls the host's drift.
#
# AB_SECONDS (default 17) is each run's --seconds. Needs git, go and awk.
set -eu

usage() {
	echo "usage: $0 BASE CHANGE [PAIRS] [WORKLOAD...]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
base=$1 change=$2
shift 2
pairs=10
if [ $# -gt 0 ]; then
	pairs=$1
	shift
fi
case $pairs in '' | *[!0-9]*) usage ;; esac
workloads=${*:-fig10-sweep compute-usecase cell-latency farm}
seconds=${AB_SECONDS:-17}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
cleanup() {
	for side in A B; do
		if [ -d "$work/$side" ]; then
			git -C "$root" worktree remove --force "$work/$side" || true
		fi
	done
	rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for side in A B; do
	if [ "$side" = A ]; then commit=$base; else commit=$change; fi
	git -C "$root" worktree add --detach --quiet "$work/$side" "$commit"
	rm -rf "$work/$side/bench"
	mkdir "$work/$side/bench"
	cp "$root"/bench/* "$work/$side/bench/"
	(cd "$work/$side/bench" && go build -o "$work/bench-$side" .)
done

results=$work/results
: >"$results"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
	for w in $workloads; do
		for side in $order; do
			if ! (cd "$work/$side" && "$work/bench-$side" --workload "$w" --seed "$i" --seconds "$seconds") >"$work/out" 2>"$work/err"; then
				echo "ab.sh: side $side, workload $w, pair $i failed:" >&2
				cat "$work/err" "$work/out" >&2
				exit 1
			fi
			awk -v side="$side" -v pair="$i" \
				'NF == 5 && $1 != "#" && $3 ~ /^[-+0-9.eE]+$/ { print side, pair, $1, $2, $3, $4, $5 }' \
				"$work/out" >>"$results"
		done
	done
	echo "ab.sh: pair $i of $pairs done" >&2
	i=$((i + 1))
done

printf '%-16s %-20s %-9s %11s %11s %11s %11s %11s %11s %8s %7s %s\n' \
	workload metric unit A_median A_q1 A_q3 B_median B_q1 B_q3 delta B_wins rule
awk -v pairs="$pairs" '
# Fields: side pair workload metric value unit better.
{
	key = $3 " " $4
	keys[key] = 1
	unit[key] = $6
	better[key] = $7
	v[key SUBSEP $1 SUBSEP $2] = $5
}
function isort(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# quart sets q[1..3] to the exclusive-method quartiles of a[1..n].
function quart(a, n, q,   i, j, m, d) {
	isort(a, n)
	if (n == 1) { q[1] = q[2] = q[3] = a[1]; return }
	m = n + 1
	for (i = 1; i <= 3; i++) {
		j = int(i * m / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		d = i * m - j * 4
		q[i] = (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
}
END {
	for (key in keys) {
		split("", a); split("", b)
		n = 0; bwins = 0; awins = 0
		for (p = 1; p <= pairs; p++) {
			ka = key SUBSEP "A" SUBSEP p; kb = key SUBSEP "B" SUBSEP p
			if (!(ka in v) || !(kb in v)) continue
			n++
			a[n] = v[ka] + 0; b[n] = v[kb] + 0
			d = b[n] - a[n]
			if (better[key] == "lower") d = -d
			if (d > 0) bwins++
			if (d < 0) awins++
		}
		if (n == 0) continue
		quart(a, n, qa); quart(b, n, qb)
		gap = qb[2] - qa[2]; if (gap < 0) gap = -gap
		rule = "-"
		if (gap > qa[3] - qa[1]) {
			if (bwins * 10 >= 9 * n) rule = "gain"
			else if (awins * 10 >= 9 * n) rule = "loss"
		}
		delta = qa[2] != 0 ? sprintf("%+.1f%%", 100 * (qb[2] / qa[2] - 1)) : "n/a"
		split(key, kw, " ")
		printf "%-16s %-20s %-9s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %8s %7s %s\n",
			kw[1], kw[2], unit[key], qa[2], qa[1], qa[3], qb[2], qb[1], qb[3], delta, bwins "/" n, rule
	}
}' "$results" | sort -k1,1 -k2,2
