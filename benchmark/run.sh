#!/usr/bin/env bash
# The repository's benchmark: builds `hetbench` from source and runs it.
#
#   benchmark/run.sh [--seed N] [--threads T] [--workload NAME] [--out DIR]
#                    [--seconds S] [--smoke]
#       Full pass: each workload in its own process (so peak RSS is per
#       workload), untraced repetitions then traced ones, output checks
#       on. Prints `workload metric value unit` for every metric, writes
#       DIR/results.json, DIR/<workload>.result.json and
#       DIR/trace.<workload>.json (DIR defaults to benchmark/results).
#       Exits 1 if any output check failed.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One measurement, as BENCHMARK.json's driver calls it: the last
#       line of stdout is a JSON object with the end-to-end metrics
#       (--trace 0) or the per-layer metrics (--trace 1).
#
#   benchmark/run.sh --compare A.json B.json
#       Is B no worse than A, by the bounds BENCHMARK.json declares?
#       Exits 1 on a regression, 2 if the runs are not comparable.
#
# Offline: every dependency is a path inside this repository. The build
# goes to $CARGO_TARGET_DIR if set, else benchmark/target.

set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_NET_OFFLINE=true

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/hetbench"

driver=0
out="$here/results"
workloads=(submit_dense submit_sparse pipeline_wide stream_compact serve_mixed)
pass=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --compare) exec "$bin" "$@" ;;
    --trace) driver=1 ;;
    --out) out="${args[i + 1]:-}" ;;
    --workload) workloads=("${args[i + 1]:-}") ;;
    esac
done

if [ "$driver" -eq 1 ]; then
    exec "$bin" --out "$out" "$@"
fi

# Full pass. --workload and --out were read above; the rest goes through.
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload | --out) i=$((i + 1)) ;;
    *) pass+=("${args[i]}") ;;
    esac
done
export HETBENCH_GIT_SHA="$(git -C "$here" rev-parse HEAD 2>/dev/null || true)"
export HETBENCH_RUSTC="$(rustc --version)"
mkdir -p "$out"
rm -f "$out"/*.result.json "$out"/trace.*.json "$out"/results.json
failed=0
for w in "${workloads[@]}"; do
    echo "== $w"
    "$bin" --workload "$w" --trace 1 --out "$out" ${pass[@]+"${pass[@]}"} | tee "$out/$w.log"
    if ! tail -n 1 "$out/$w.log" | grep -q '"correct":true'; then
        failed=1
    fi
    rm -f "$out/$w.log"
done
"$bin" --merge "$out"
if [ "$failed" -ne 0 ]; then
    echo "run.sh: output checks FAILED (see CHECK FAILED lines above)" >&2
    exit 1
fi
