#!/usr/bin/env bash
# Run the benchmark in sets and compare sets.
#
#   benchmark/run.sh SETS           # SETS sets; each runs every workload on
#                                   # seeds 1..10, then once traced
#   benchmark/run.sh compare A B    # judge result file B against A
#
# Builds once, then alternates the workload order between sets. Set k
# appends one JSON object per run to benchmark/results/set-k.jsonl:
# {"set", "workload", "seed", "trace", "result"}, where result is the
# benchmark's own result line. Traced runs also write Chrome traces and
# per-layer JSON to benchmark/results/traces/set-k/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/harl-benchmark"
if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi

sets=${1:?usage: benchmark/run.sh SETS | benchmark/run.sh compare A B}
seeds=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
read -r -a workloads <<<"$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p benchmark/results

run() { # set workload seed trace [extra args...]
    local set=$1 workload=$2 seed=$3 trace=$4 out result
    shift 4
    if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" "$@"); then
        echo "warning: $workload seed $seed trace $trace failed" >&2
    fi
    result=$(tail -n 1 <<<"$out")
    [[ $result == \{* ]] || result=null
    printf '{"set":%d,"workload":"%s","seed":%d,"trace":%d,"result":%s}\n' \
        "$set" "$workload" "$seed" "$trace" "$result" >>"benchmark/results/set-$set.jsonl"
}

for ((set = 1; set <= sets; set++)); do
    : >"benchmark/results/set-$set.jsonl"
    order=("${workloads[@]}")
    if ((set % 2 == 0)); then
        order=()
        for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
    fi
    for workload in "${order[@]}"; do
        for ((seed = 1; seed <= seeds; seed++)); do
            run "$set" "$workload" "$seed" 0
        done
        run "$set" "$workload" 1 1 --trace-out "benchmark/results/traces/set-$set"
        echo "set $set: $workload done" >&2
    done
done
