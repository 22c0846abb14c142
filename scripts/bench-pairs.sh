#!/bin/sh
# Paired parent/change runs of one benchmark workload, the procedure
# bench/README.md demands for any claimed gain: both sides are built once,
# run in alternating order with -trace 0, and every pair is printed, then
# each side's median and quartiles and the win count.
#
#   scripts/bench-pairs.sh BASE [N] [WORKLOAD] [METRIC] [SEED]
#
# BASE is any git ref; the change is the working tree. The base is
# checked out with `git archive` into .bench_build/pairs (git-ignored),
# which leaves no worktree registration behind; the checkout and the
# benchmark's segment stores are removed on exit (a second copy of the
# tree pollutes every grep -r), base.txt and head.txt stay.
set -eu

base=${1:?usage: bench-pairs.sh BASE [N] [WORKLOAD] [METRIC] [SEED]}
n=${2:-10}
workload=${3:-page-tcp-seg}
metric=${4:-dump_mbps}
seed=${5:-1}

root=$(git rev-parse --show-toplevel)
work=$root/.bench_build/pairs
rm -rf "$work"
trap 'rm -rf "$work/base" "$work/stores"' EXIT
mkdir -p "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
(cd "$work/base" && go build -o "$work/bench-base" ./bench)
(cd "$root" && go build -o "$work/bench-head" ./bench)

# The driver form prints one JSON contract line last; pull the metric out.
run() {
	v=$("$work/bench-$1" -workload "$workload" -seed "$seed" -trace 0 -dir "$work/stores" 2>/dev/null |
		tail -n 1 | sed -n 's/.*"'"$metric"'":{"value":\([0-9.eE+-]*\).*/\1/p')
	[ -n "$v" ] || { echo "bench-pairs: $1 run printed no $metric" >&2; exit 1; }
	echo "$v"
}

case $metric in
*_mbps) better=higher ;;
*) better=lower ;;
esac
echo "base $base vs head, workload $workload, seed $seed, metric $metric ($better is better)"

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		order="base first"
		b=$(run base)
		h=$(run head)
	else
		order="head first"
		h=$(run head)
		b=$(run base)
	fi
	echo "$b" >>"$work/base.txt"
	echo "$h" >>"$work/head.txt"
	echo "pair $i ($order): base $b  head $h"
	i=$((i + 1))
done

# One side's median and quartiles (linear interpolation between ranks).
summary() {
	sort -g "$work/$1.txt" | awk -v side="$1" '
	function q(p,    pos, lo) { pos = 1 + (NR - 1) * p; lo = int(pos); return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) }
	{ v[NR] = $1 }
	END { printf "%s: median %.4g  quartiles %.4g .. %.4g\n", side, q(.5), q(.25), q(.75) }'
}
summary base
summary head
paste "$work/base.txt" "$work/head.txt" | awk -v better="$better" '
	$1 == $2 { ties++; next }
	(better == "higher") == ($2 > $1) { wins++ }
	END { printf "head won %d of %d pairs (%d ties)\n", wins, NR, ties }'
