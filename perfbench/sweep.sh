#!/usr/bin/env bash
# Runs the benchmark COUNT times on each workload, with seeds FIRST to
# FIRST+COUNT-1 and the run_seconds of BENCHMARK.json, and appends each run's
# result line to OUT/WORKLOAD.jsonl. Workloads take turns, so drift in
# machine speed spreads over all of them. Compare two such directories with
# the comparison report:
#
#   bash perfbench/sweep.sh runs-a 10 1
#   bash perfbench/sweep.sh runs-b 10 101
#   .bench_build/perfbench compare runs-a runs-b
#
# Usage: perfbench/sweep.sh OUT COUNT FIRST
set -euo pipefail
if [ $# -ne 3 ]; then
	echo "usage: $0 OUT COUNT FIRST" >&2
	exit 2
fi
out=$1 count=$2 first=$3
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
mkdir -p "$out"
for ((i = 0; i < count; i++)); do
	seed=$((first + i))
	for w in optimize simulate serve; do
		line=$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
		echo "$line" >>"$out/$w.jsonl"
		echo "$w seed $seed: $line" >&2
	done
done
