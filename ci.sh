#!/usr/bin/env bash
# Local CI: the checks every change must pass before landing.
#
#   ./ci.sh          # fmt + clippy + tests
#
# All dependencies are vendored (see vendor/), so this runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== harl-lint =="
cargo run -q -p harl-lint -- --root .

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== benchmark package tests =="
# benchmark/ is its own cargo package (empty [workspace]), so the
# workspace test run above does not reach it.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== benches compile =="
cargo bench --workspace --no-run -q

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== scenario smoke test =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/smoke.json --out "$out/smoke.json"
if ! diff -u scenarios/smoke.golden.json "$out/smoke.json"; then
    echo "scenario smoke report diverged from scenarios/smoke.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
echo "scenario report matches golden"
rm -rf "$out"

echo "== metrics report golden =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/smoke.json --sample-ms 1 \
    --metrics-out "$out/metrics.jsonl" --out "$out/smoke.json" >/dev/null
cargo run --release -q -p harl-bench --bin harl-cli -- \
    report "$out/metrics.jsonl" > "$out/report.txt"
if ! diff -u scenarios/smoke.report.golden.txt "$out/report.txt"; then
    echo "rendered metrics report diverged from scenarios/smoke.report.golden.txt" >&2
    echo "(if the change is intentional, regenerate the golden with the commands above)" >&2
    exit 1
fi
echo "metrics report matches golden"
rm -rf "$out"

echo "== bench-planning smoke test =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    bench-planning --quick --json --out "$out/BENCH_planning.json"
python3 - "$out/BENCH_planning.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
phases = doc["phases"]
for phase in ("single_region", "whole_file_64", "online_replan"):
    assert phases[phase]["wall_s"] > 0, phase
print("bench-planning JSON schema OK")
PY
rm -rf "$out"

echo "== three-tier scenario golden =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/three_tier.json --out "$out/three_tier.json"
if ! diff -u scenarios/three_tier.golden.json "$out/three_tier.json"; then
    echo "three-tier scenario report diverged from scenarios/three_tier.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
python3 - scenarios/three_tier.golden.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["plan_cost_usd"] > 0, "three-tier plan must carry a non-zero dollar cost"
print("three-tier report matches golden (plan_cost_usd = %.6f)" % doc["plan_cost_usd"])
PY
rm -rf "$out"

echo "== bench-planning regression guard =="
# Full-scale rerun of the three planning phases; fails if any phase's
# throughput drops more than 20% below the committed BENCH_planning.json
# baseline (or the per-phase work totals drift, meaning the baseline is
# stale).
cargo run --release -q -p harl-bench --bin harl-cli -- \
    bench-planning --guard BENCH_planning.json

echo "== bench-sim smoke test =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    bench-sim --quick --json --out "$out/BENCH_sim.json"
python3 - "$out/BENCH_sim.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "harl.bench.sim.v2", doc["schema"]
tiers = doc["tiers"]
assert [t["servers"] for t in tiers] == [8, 256, 1024, 4096], tiers
requests = [t["requests"] for t in tiers]
assert len(set(requests)) > 1, f"request axis must vary across tiers: {requests}"
for t in tiers:
    assert t["events"] > 0 and t["events_per_s"] > 0, t
    assert t["requests_completed"] == t["requests"], t
assert "max_recorder_overhead_pct" in doc
print("bench-sim JSON schema OK")
PY
rm -rf "$out"

echo "== bench-sim regression guard =="
# Full-scale noop-only rerun of every tier; fails if events/s at any tier
# drops more than 20% below the committed BENCH_sim.json baseline (or if
# the deterministic event counts drift, which means the baseline is stale).
cargo run --release -q -p harl-bench --bin harl-cli -- \
    bench-sim --guard BENCH_sim.json

echo "== multiapp serve scenario golden =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    serve --scenario scenarios/multiapp.json --out "$out/multiapp.json"
if ! diff -u scenarios/multiapp.golden.json "$out/multiapp.json"; then
    echo "multiapp serve report diverged from scenarios/multiapp.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
python3 - scenarios/multiapp.golden.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["cache_hit_rate"] > 0, "multiapp replay must hit the plan cache"
assert doc["plans_hit"] + doc["plans_stale"] + doc["plans_miss"] == doc["jobs"], doc
assert doc["batch_applied"] + doc["batch_coalesced"] == doc["batch_enqueued"], doc
print("multiapp report matches golden (cache hit rate = %.1f%%)"
      % (100 * doc["cache_hit_rate"]))
PY
rm -rf "$out"

echo "== determinism audit (fast tier) =="
# Re-runs the smoke, multiapp, btio and wide scenarios at 1 and 8 planner
# threads, hashes every artifact (report JSON + wall-clock-stripped metrics
# JSONL) and fails on any byte difference across thread budgets or against
# the committed goldens. The full tier (all five scenarios, threads 1/2/8,
# two seeds) is `harl-cli audit-determinism` without --fast.
cargo run --release -q -p harl-bench --bin harl-cli -- \
    audit-determinism --fast

echo "== bench-serve smoke test =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    bench-serve --quick --json --out "$out/BENCH_serve.json"
python3 - "$out/BENCH_serve.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "harl.bench.serve.v1", doc["schema"]
tiers = doc["tiers"]
assert [t["tenants"] for t in tiers] == [16, 256, 2048], tiers
for t in tiers:
    assert t["submissions"] > 0, t
    assert t["warm"]["plans_per_s"] > 0 and t["cold"]["plans_per_s"] > 0, t
    assert t["warm"]["p50_ms"] <= t["warm"]["p99_ms"], t
assert tiers[0]["warm"]["cache_hit_rate"] > 0.5, \
    "repeated-workload tier must mostly hit the cache"
print("bench-serve JSON schema OK")
PY
rm -rf "$out"

echo "== bench-serve regression guard =="
# Full-scale rerun of all three tenant tiers; fails if any deterministic
# quantity (submission counts, region reuse split, cache hit rate) drifts
# from the committed BENCH_serve.json baseline, meaning serve behaviour
# changed and the baseline is stale. Wall-clock plans/s is reported for
# information only (machine-dependent; a >20% drop prints a warning but
# never fails CI).
cargo run --release -q -p harl-bench --bin harl-cli -- \
    bench-serve --guard BENCH_serve.json

echo "CI OK"
