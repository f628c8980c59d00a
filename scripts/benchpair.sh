#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this checkout.
#
#   scripts/benchpair.sh <parent-ref> [pairs] [workload...]
#
# Exports <parent-ref> into .bench_build/parent/ (git archive: the
# working tree and .git stay untouched), then for each workload runs
# the parent and this checkout alternately with each side's own,
# unmodified bench/run.sh: pair p uses seed SEED+p-1 (SEED defaults to
# 1) on both sides, and who goes first alternates per pair. The runs
# land in two results files, bench/out/pair-parent.json and
# bench/out/pair-change.json, and the script ends with bench/run.sh
# --compare of the two (rows of workloads that were not run are left
# out). It exits non-zero when a row is worse than its BENCHMARK.json
# bound.
#
# Each run's lines that give a metric as measured, before the memory
# calibration's correction, are echoed beside its metric lines, and
# before the table the script prints, per side, the address mod 64 of
# the calibration loop main.(*memSpeed).sample in that side's binary:
# a function's alignment can move a measured rate by itself. After the
# table it prints, per workload, the median of each side's ops_per_s as
# measured, their ratio (change over parent) and in how many pairs the
# change's rate was the higher; then the same for alloc_kb_per_op (no
# memory-speed correction applies to it), counting the pairs in which
# the change allocated less.
#
# Defaults: 10 pairs, every workload of BENCHMARK.json. The run length
# is the benchmark's run_seconds on both sides.
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,29p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
ref="$1"
pairs="${2:-10}"
shift
[ $# -gt 0 ] && shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(sed -n '/"workloads"/,/\]/p' BENCHMARK.json | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')
fi
seed0="${SEED:-1}"

parent_sha="$(git rev-parse --short "$ref^{commit}")"
change_sha="$(git rev-parse --short HEAD)"
git diff --quiet HEAD 2>/dev/null || change_sha="$change_sha+dirty"
parent="$root/.bench_build/parent"
rm -rf "$parent"
mkdir -p "$parent" bench/out
git archive "$ref" | tar -x -C "$parent"

out_parent="bench/out/pair-parent.json"
out_change="bench/out/pair-change.json"
recs_parent=()
recs_change=()
# raw_<side>[workload] lists that side's as-measured ops_per_s, and
# alloc_<side>[workload] its alloc_kb_per_op, one per pair in pair order
# ("nan" where a run printed none).
declare -A raw_parent=() raw_change=() alloc_parent=() alloc_change=()

# run_side <side> <dir> <workload> <seed>: one untraced run; the result
# line (the last line run.sh prints) becomes one record of that side's
# results file. A run whose operations failed still prints its line and
# is recorded; --compare reports it.
run_side() {
	local side="$1" dir="$2" wl="$3" seed="$4" log line
	echo "# $side: $wl seed $seed" >&2
	log="$(bash "$dir/bench/run.sh" --workload "$wl" --seed "$seed" --trace 0)" || true
	line="$(tail -n 1 <<<"$log")"
	case "$line" in
	"{"*) ;;
	*)
		echo "$log" >&2
		echo "benchpair: $side $wl seed $seed printed no result line" >&2
		exit 1
		;;
	esac
	grep -E "^$wl (ops_per_s|lat_tail_ms|alloc_kb_per_op|mem_inuse_p95_mb) " <<<"$log" | sed "s/^/#   /" >&2 || true
	grep -F "as measured, before the correction" <<<"$log" | sed "s/^# */#   /" >&2 || true
	local rec="{\"workload\":\"$wl\",\"seed\":$seed,\"trace\":false,${line#\{}"
	local raw alloc
	raw="$(sed -n 's/.*as measured, before the correction: ops_per_s \([^,]*\),.*/\1/p' <<<"$log" | head -n 1)"
	alloc="$(awk -v wl="$wl" '$1 == wl && $2 == "alloc_kb_per_op" { print $3; exit }' <<<"$log")"
	if [ "$side" = parent ]; then
		recs_parent+=("$rec")
		raw_parent[$wl]+="${raw:-nan} "
		alloc_parent[$wl]+="${alloc:-nan} "
	else
		recs_change+=("$rec")
		raw_change[$wl]+="${raw:-nan} "
		alloc_change[$wl]+="${alloc:-nan} "
	fi
}

# pair_summary <workload> <what> <higher|lower> <parent values>
# <change values>: one line with the median of each side's values, their
# ratio (change over parent), and in how many pairs the change was better
# (a pair counts only if both of its runs printed a value).
pair_summary() {
	awk -v wl="$1" -v what="$2" -v better="$3" -v p="$4" -v c="$5" '
	function median(a, n, i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
				t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
			}
		return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
	}
	BEGIN {
		np = split(p, pa, " "); nc = split(c, ca, " ")
		for (i = 1; i <= np && i <= nc; i++) {
			if (pa[i] == "nan" || ca[i] == "nan") continue
			n++; ps[n] = pa[i] + 0; cs[n] = ca[i] + 0
			if (better == "higher" ? cs[n] > ps[n] : cs[n] < ps[n]) won++
		}
		if (n == 0) {
			printf "# %s %s: no pair printed a value on both sides\n", wl, what
			exit
		}
		mp = median(ps, n); mc = median(cs, n)
		printf "# %s %s: parent median %.6g, change median %.6g, ratio %.3f, change %s in %d of %d pairs\n", wl, what, mp, mc, mc / mp, better, won + 0, n
	}'
}

# sample_phase <dir>: the address mod 64 of main.(*memSpeed).sample in
# the benchmark binary that <dir>/bench/run.sh built, or "?" if none.
sample_phase() {
	local addr
	addr="$(go tool nm "$1/.bench_build/xmlbench" 2>/dev/null | awk '$3 == "main.(*memSpeed).sample" { print $1; exit }')"
	if [ -n "$addr" ]; then echo "$((16#$addr % 64))"; else echo "?"; fi
}

# write_results <file> <commit> <record...>
write_results() {
	local file="$1" commit="$2" sep=""
	shift 2
	{
		printf '{"commit":"%s","started":"%s","runs":[\n' "$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
		for rec in "$@"; do
			printf '%s%s' "$sep" "$rec"
			sep=$',\n'
		done
		printf '\n],"claim":null}\n'
	} >"$file"
}

for wl in "${workloads[@]}"; do
	for ((p = 1; p <= pairs; p++)); do
		seed=$((seed0 + p - 1))
		if ((p % 2)); then
			run_side parent "$parent" "$wl" "$seed"
			run_side change "$root" "$wl" "$seed"
		else
			run_side change "$root" "$wl" "$seed"
			run_side parent "$parent" "$wl" "$seed"
		fi
	done
done
write_results "$out_parent" "$parent_sha" "${recs_parent[@]}"
write_results "$out_change" "$change_sha" "${recs_change[@]}"
echo "# wrote $out_parent and $out_change" >&2

# --compare lists every workload of BENCHMARK.json and counts one that
# is in neither file as worse; only the rows that were measured decide
# this script's exit status.
table="$(bash bench/run.sh --compare "$out_parent" "$out_change" 2>/dev/null | grep -v ' missing$')" || true
if [ -z "$table" ]; then
	echo "benchpair: --compare printed no table" >&2
	exit 1
fi
echo "# main.(*memSpeed).sample mod 64: parent $(sample_phase "$parent"), change $(sample_phase "$root")"
echo "$table"
for wl in "${workloads[@]}"; do
	pair_summary "$wl" "ops_per_s as measured, before the correction" higher "${raw_parent[$wl]:-}" "${raw_change[$wl]:-}"
	pair_summary "$wl" alloc_kb_per_op lower "${alloc_parent[$wl]:-}" "${alloc_change[$wl]:-}"
done
if grep -Eq ' worse( |$)' <<<"$table"; then
	echo "benchpair: at least one row is worse than its bound" >&2
	exit 1
fi
