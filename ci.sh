#!/usr/bin/env bash
# Local CI: the checks every change must pass before landing.
#
#   ./ci.sh          # fmt + lint + clippy + tests + docs + goldens
#
# All dependencies are vendored (see vendor/), so this runs fully offline.
# No stage reads a clock: wall time is measured by benchmark/ and gated
# nowhere here.
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

echo "== cargo test --release (core, simcore and middleware) =="
# The optimizer, floor and collective-lowering oracles, with the code
# generation harl-cli and the benchmark use; some timing tests only show
# their faults here.
cargo test --release -q -p harl-core -p harl-simcore -p harl-middleware

echo "== examples (release) =="
# Each example asserts on its own narrative (the monitor and planning
# paths among them); clippy above only compiles them.
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "== benchmark package tests =="
# benchmark/ is its own cargo package (empty [workspace]), so the
# workspace test run above does not reach it.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== benchmark package clippy (deny warnings) =="
cargo clippy --offline -q --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "== benchmark package cargo fmt --check =="
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== metrics report golden =="
# Byte-checks the CLI's own writers: `run --out` against the smoke golden
# and the rendered `report` against its golden.
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/smoke.json --sample-ms 1 \
    --metrics-out "$out/metrics.jsonl" --out "$out/smoke.json" >/dev/null
cargo run --release -q -p harl-bench --bin harl-cli -- \
    report "$out/metrics.jsonl" > "$out/report.txt"
if ! diff -u scenarios/smoke.golden.json "$out/smoke.json" ||
    ! diff -u scenarios/smoke.report.golden.txt "$out/report.txt"; then
    echo "smoke output diverged from its golden under scenarios/" >&2
    echo "(if the change is intentional, regenerate the golden with the commands above)" >&2
    exit 1
fi
echo "smoke report and rendered metrics report match their goldens"
rm -rf "$out"

echo "== determinism audit =="
# Replays the six scenario goldens at planner threads 1/2/8 under two
# seeds (36 runs) and fails on any byte difference across thread budgets,
# any golden mismatch and any broken report invariant (see
# crates/bench/src/auditdet.rs).
cargo run --release -q -p harl-bench --bin harl-cli -- audit-determinism

echo "CI OK"
