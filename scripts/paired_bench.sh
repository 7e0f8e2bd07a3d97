#!/usr/bin/env bash
# paired_bench.sh — time two revisions against each other on one box.
#
#   bash scripts/paired_bench.sh PARENT CHANGE WORKLOAD N [bench flags...]
#   bash scripts/paired_bench.sh HEAD~1 HEAD msp430-conv-seu 5
#   SEED0=900 bash scripts/paired_bench.sh main topic avr-fib-seu 10 --seconds 10
#
# PARENT and CHANGE are git revisions of the repository the script sits in.
# Each is checked out into a temporary worktree under $TMPDIR (removed on
# exit) and built there by bench/run.sh. The script then runs
#
#   bash bench/run.sh --workload WORKLOAD --trace 0 --seed S [bench flags...]
#
# N times in each, in pairs that alternate which side goes first: the change
# first in odd pairs (1, 3, ...), the parent first in even ones, so that
# drift of the box and a first-run penalty fall on both alike. Pair k runs
# seed SEED0+k-1 in both; SEED0 defaults to a number taken from the clock,
# so every call runs fresh seeds. For each end-to-end metric of
# BENCHMARK.json it prints both medians, the distance between the quartiles
# of the parent's runs, the median of the per-pair ratios change/parent and
# the number of pairs the change won (strictly better in the metric's
# direction). A run whose report is not "correct" is counted and named.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD N [bench flags...]" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 n=$4
shift 4
seed0=${SEED0:-$(($(date +%s) % 100000 + 1000))}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/paired_bench.XXXXXX")
cleanup() {
	for side in parent change; do
		[ -d "$tmp/$side" ] && git -C "$root" worktree remove --force "$tmp/$side" >/dev/null 2>&1 || true
	done
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$tmp/parent" "$parent" >/dev/null 2>&1
git -C "$root" worktree add --detach "$tmp/change" "$change" >/dev/null 2>&1

# metrics lists "name better" for every end-to-end metric.
awk '
/"end_to_end"/ { on = 1 }
/"per_layer"/ { on = 0 }
on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$tmp/change/BENCHMARK.json" >"$tmp/metrics"

# run SIDE SEED appends "SIDE SEED metric value" lines for one run.
run() {
	local side=$1 seed=$2 last
	shift 2
	last=$(cd "$tmp/$side" && bash bench/run.sh --workload "$workload" --trace 0 --seed "$seed" "$@" 2>/dev/null | tail -n 1)
	case $last in
	*'"correct":true'*) ;;
	*) echo "  $side seed $seed: report not correct" >&2 && echo "$side $seed incorrect 1" >>"$tmp/runs" ;;
	esac
	while read -r name _; do
		v=$(printf '%s\n' "$last" | sed -n "s/.*\"$name\":{\"value\":\([-0-9.eE+]*\).*/\1/p")
		[ -n "$v" ] && echo "$side $seed $name $v" >>"$tmp/runs"
	done <"$tmp/metrics"
}

echo "paired_bench: $workload, parent $(git -C "$root" rev-parse --short "$parent"), change $(git -C "$root" rev-parse --short "$change"), $n pairs from seed $seed0" >&2
: >"$tmp/runs"
for i in $(seq 0 $((n - 1))); do
	s=$((seed0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run change "$s" "$@"
		run parent "$s" "$@"
	else
		run parent "$s" "$@"
		run change "$s" "$@"
	fi
	echo "  pair $((i + 1))/$n done (seed $s)" >&2
done

printf '%-18s %12s %12s %12s %8s %6s\n' metric parent change parent_iqr ratio wins
while read -r name better; do
	awk -v name="$name" -v better="$better" '
	# quantile sorts a[1..k] and interpolates linearly between order
	# statistics, as numpy does by default.
	function quantile(a, k, q,   i, j, t, pos, lo) {
		for (i = 1; i <= k; i++) for (j = i + 1; j <= k; j++) if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
		pos = (k - 1) * q + 1; lo = int(pos)
		return lo >= k ? a[k] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
	}
	$3 == name { v[$1, $2] = $4; seeds[$2] = 1 }
	END {
		k = 0; wins = 0
		for (s in seeds) {
			if (!((("parent", s) in v) && (("change", s) in v))) continue
			k++; p[k] = v["parent", s]; c[k] = v["change", s]
			r[k] = p[k] != 0 ? c[k] / p[k] : 1
			if ((better == "lower" && c[k] < p[k]) || (better == "higher" && c[k] > p[k])) wins++
		}
		if (k == 0) { printf "%-18s %12s\n", name, "no data"; exit }
		iqr = quantile(p, k, 0.75) - quantile(p, k, 0.25)
		printf "%-18s %12.6g %12.6g %12.6g %8.4f %3d/%-2d\n", name, quantile(p, k, 0.5), quantile(c, k, 0.5), iqr, quantile(r, k, 0.5), wins, k
	}' "$tmp/runs"
done <"$tmp/metrics"
if grep -q ' incorrect ' "$tmp/runs"; then
	echo "paired_bench: $(grep -c ' incorrect ' "$tmp/runs") run(s) not correct" >&2
	exit 1
fi
