#!/usr/bin/env bash
# Measures a parent and a change with the benchmark and compares them.
#
#   bash perfbench/compare.sh PARENT_CHECKOUT CHANGE_CHECKOUT [RUNS] [HELDOUT_SEED] [WORKLOAD...]
#
# Both arguments are checkouts that hold perfbench/ and BENCHMARK.json
# (a change that claims a gain may not edit the benchmark, so both
# sides run the same benchmark code). For each workload it runs seeds
# 1..RUNS (default 10) on both sides in alternating order — odd seeds
# parent first, even seeds change first — plus the held-out seed
# (default 1001), all at the change's run_seconds, and then prints the
# comparator's verdicts. Results land under
# CHANGE_CHECKOUT/.bench_build/compare/.
set -euo pipefail

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
runs=${3:-10}
heldout=${4:-1001}
shift $(( $# < 4 ? $# : 4 ))
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	workloads=(offline-table1 service-mixed sessions-churn)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$change/BENCHMARK.json")
out="$change/.bench_build/compare"
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

side() { # side NAME DIR WORKLOAD SEED
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 --out "$out/$1" >/dev/null)
}

for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$runs") "$heldout"; do
		if [ $((seed % 2)) -eq 1 ]; then
			side parent "$parent" "$w" "$seed"
			side change "$change" "$w" "$seed"
		else
			side change "$change" "$w" "$seed"
			side parent "$parent" "$w" "$seed"
		fi
		echo "$w seed $seed done" >&2
	done
done

"$change/.bench_build/perfbench-bin" compare -bench "$change/BENCHMARK.json" -heldout "$heldout" "$out/parent" "$out/change"
