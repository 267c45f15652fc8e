#!/usr/bin/env bash
# matchbench_smoke.sh — short runs of the match-service benchmark
# (matchbench, declared in BENCHMARK.json) on both workloads, so the one
# perf harness cannot rot. Fails when a run exits non-zero or its result
# line does not report every module answered correctly. CI runs this as a
# job step; `make matchbench-smoke` runs the same thing locally.
set -euo pipefail

for workload in cold-suite warm-single; do
	out=$(bash matchbench/run.sh --workload "$workload" --seed 1 --seconds 5 --trace 0)
	result=$(printf '%s\n' "$out" | tail -n 1)
	echo "$workload: $result"
	case "$result" in
	*'"correct":true'*) ;;
	*)
		echo "matchbench_smoke: $workload reported failures" >&2
		exit 1
		;;
	esac
done
