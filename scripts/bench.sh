#!/usr/bin/env bash
# Regenerate or verify the committed perf baselines:
# BENCH_partition.json (partitioner throughput normalized by the random
# partitioner in the same run), BENCH_rebalance.json (static CCR
# placement vs CCR + mid-run migration under a scripted slowdown),
# BENCH_scale.json (bounded-RSS pipeline: resident bytes/edge and peak
# RSS for the plain vs compact representations), and BENCH_serve.json
# (query serving: simulated p50/p99 latency, throughput, the
# 1/2/4-thread batch-composition digest, host requests/s, and the host
# cost of an 8-lane wave over its lanes run solo).
#
#   scripts/bench.sh            # release build + all experiments at --scale 1
#   scripts/bench.sh --scale 8  # quicker smoke run (numbers not committed)
#   scripts/bench.sh --check    # re-measure and gate against the committed
#                               # baselines (wall-clock-tolerant; this is
#                               # what CI's bench job runs). Each gate
#                               # prints one table, row by row; the rules
#                               # are each bench's `gated_rows` next to
#                               # crates/bench/src/gate.rs
#
# Fully offline, like scripts/check.sh: external crates resolve to path
# stand-ins under third_party/, so nothing here touches the network.
# The JSON (and each *.manifest.json sidecar) lands at the repository
# root; commit it when a gated hot path changes intentionally. Engine
# throughput is not measured here: BENCHMARK.json's engine.* metrics
# compare it parent-vs-change on every PR.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

scale=1
check=0
while [ "$#" -gt 0 ]; do
    case "$1" in
    --scale)
        scale="${2:?--scale needs a value}"
        shift 2
        ;;
    --check)
        check=1
        shift
        ;;
    *)
        echo "usage: scripts/bench.sh [--scale N] [--check]" >&2
        exit 2
        ;;
    esac
done

# exp_scale interprets --scale against its own 500M-edge production-target
# spec, so it runs at 10x the figure scale: the default scale=1 gives the
# committed ~50M-edge scale-10 run, and smoke runs shrink proportionally.
scale_scale=$((scale * 10))

echo "==> cargo build --release -p hetgraph-bench --bin exp_partition --bin exp_rebalance --bin exp_scale --bin exp_serve"
cargo build --release -p hetgraph-bench --bin exp_partition --bin exp_rebalance --bin exp_scale --bin exp_serve

if [ "$check" -eq 1 ]; then
    echo "==> exp_partition --scale $scale --check BENCH_partition.json"
    ./target/release/exp_partition --scale "$scale" --check BENCH_partition.json
    echo
    echo "==> exp_rebalance --scale $scale --check BENCH_rebalance.json"
    ./target/release/exp_rebalance --scale "$scale" --check BENCH_rebalance.json
    echo
    # The memory gate: re-runs the scale pipeline at the committed
    # baseline's own scale and fails on RSS-per-edge regressions.
    echo "==> exp_scale --scale $scale_scale --check BENCH_scale.json"
    ./target/release/exp_scale --scale "$scale_scale" --check BENCH_scale.json
    echo
    # The serving gate: simulated p99 latency, throughput, and the
    # thread-sweep composition digest against the committed baseline,
    # plus the fresh run's batched-over-solo host ratio.
    echo "==> exp_serve --scale $scale --check BENCH_serve.json"
    ./target/release/exp_serve --scale "$scale" --check BENCH_serve.json
    echo
    echo "bench.sh: checks passed against BENCH_partition.json, BENCH_rebalance.json, BENCH_scale.json, and BENCH_serve.json"
else
    echo "==> exp_partition --scale $scale --out ."
    ./target/release/exp_partition --scale "$scale" --out .
    echo
    echo "==> exp_rebalance --scale $scale --out ."
    ./target/release/exp_rebalance --scale "$scale" --out .
    echo
    echo "==> exp_scale --scale $scale_scale --out ."
    ./target/release/exp_scale --scale "$scale_scale" --out .
    echo
    echo "==> exp_serve --scale $scale --out ."
    ./target/release/exp_serve --scale "$scale" --out .
    echo
    echo "bench.sh: wrote BENCH_partition.json, BENCH_rebalance.json, BENCH_scale.json, and BENCH_serve.json (scale $scale)"
fi
