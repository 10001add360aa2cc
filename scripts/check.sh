#!/usr/bin/env bash
# Full local gate: build everything, run the static-analysis pass, run the
# test suite (which re-runs the lint gate in-process via tests/lint_gate.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== redhanded-lint (interprocedural; call-graph stats land in the JSON report) =="
cargo run -q -p xtask -- lint --json results/LINT_report.json
test -s results/LINT_report.json

echo "== tests =="
cargo test -q --workspace

echo "== tests on one core (host shape exercised on purpose) =="
if command -v taskset > /dev/null 2>&1; then
    taskset -c 0 cargo test -q --workspace
else
    echo "skipped: taskset not found, so the one-core run cannot pin the tests"
fi

echo "== chaos (seeded fault injection + recovery) =="
cargo test -q --test chaos_recovery

echo "== real backend (sim/real parity + chaos on the work-stealing pool) =="
cargo test -q --test parity_real

echo "== shard (routing properties, chaos parity, live migration) =="
cargo test -q -p redhanded-dspe --test proptests_shard
cargo test -q -p redhanded-shard --test chaos_shard
cargo test -q -p redhanded-shard --test proptests_migration

echo "== obs (deterministic observability + OBS_report.json) =="
cargo test -q --test obs_consistency
cargo run -q --release -p redhanded-bench --bin perf_smoke > /dev/null
test -s results/OBS_report.json
test -s results/OBS_report.prom
test -s results/TRACE_report.json
test -s results/TRACE_perfetto.json

echo "== live metrics endpoint (mid-run Prometheus + JSON scrape) =="
cargo run -q --release -p redhanded-bench --bin serve_probe

echo "== bench gate (throughput/F1/shard + real scaling/pool efficiency vs bench/baseline.json) =="
cargo run -q --release -p redhanded-bench --bin perf_recovery > /dev/null
cargo run -q --release -p redhanded-bench --bin perf_shard > /dev/null
test -s results/BENCH_shard.json
cargo run -q --release -p redhanded-bench --bin fig16_throughput -- --mode real --scale 0.02 > /dev/null
test -s results/BENCH_real.json
test -s results/POOL_report.json
cargo run -q -p xtask -- bench-gate

echo "== OK =="
