#!/usr/bin/env bash
# Tier-1 gate for the hetgraph workspace. Run before every commit:
#
#   scripts/check.sh            # full gate (build, tests, benchmark tests + clippy, third_party tests, fmt, clippy, rustdoc)
#   scripts/check.sh --fast     # skip the release build (debug test run only)
#   scripts/check.sh --ci       # GitHub Actions ::group:: annotations
#
# Fully offline: external crates resolve to path stand-ins under
# third_party/ (see third_party/README.md), so no step here touches the
# network or the crates.io registry.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

fast=0
ci=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    --ci) ci=1 ;;
    *)
        echo "usage: scripts/check.sh [--fast] [--ci]" >&2
        exit 2
        ;;
    esac
done

group() {
    if [ "$ci" -eq 1 ]; then
        echo "::group::$*"
    else
        echo
        echo "==> $*"
    fi
}

endgroup() {
    if [ "$ci" -eq 1 ]; then
        echo "::endgroup::"
    fi
}

step() {
    group "$*"
    "$@"
    endgroup
}

if [ "$fast" -eq 0 ]; then
    step cargo build --release --workspace --all-targets
fi
step cargo test -q --workspace
# The R-MAT generator fans its attempt chunks out in waves of
# default_host_threads(); an odd worker count makes waves end mid-way
# through the chunk sequence, so the generator's tests cross chunk
# boundaries through the public `generate` path.
step env HETGRAPH_THREADS=3 cargo test -q -p hetgraph-gen
# Framework::deploy profiles its 18 (app, proxy) cells at
# default_host_threads(); an odd worker count splits them unevenly, and
# the framework tests check the pool against the serial profile.
step env HETGRAPH_THREADS=3 cargo test -q -p hetgraph --lib framework
step env HETGRAPH_THREADS=3 cargo test -q -p hetgraph-profile
# The benchmark is a workspace of its own (see BENCHMARK.json): its tests
# run all five workloads at smoke size with every output check on, so an
# API drift against benchmark/src/layers.rs or a broken output fails here
# instead of in the benchmark run.
step cargo test --offline -q --manifest-path benchmark/Cargo.toml
# The workspace clippy step below does not reach the benchmark's own
# workspace; lint it here so the ruler holds the same bar.
step cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
# third_party/ is excluded from the workspace, so `cargo test --workspace`
# never runs the offline stand-ins' own unit tests; run each crate's
# suite here (each writes a Cargo.lock beside its manifest, ignored).
for crate in serde serde_json proptest criterion; do
    step cargo test --offline -q --manifest-path "third_party/$crate/Cargo.toml" \
        --target-dir target/third_party
done

# cargo fmt --all would also reformat the third_party/ offline stand-ins,
# which track upstream layout; gate only this repo's own sources. Collect
# the file list into an array first: a `... | while read | xargs` pipeline
# reports the exit status of its last segment under pipefail, and a
# filter step that ends on a failed `[ -f ]` test would flag a clean tree
# (or, worse, earlier segments could mask a real rustfmt failure).
group "rustfmt --check (workspace sources, third_party excluded)"
fmt_files=()
while IFS= read -r f; do
    if [ -f "$f" ]; then
        fmt_files+=("$f")
    fi
done < <(git ls-files '*.rs' | grep -v '^third_party/')
rustfmt --check --edition 2021 "${fmt_files[@]}"
endgroup

step cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links (e.g. to a deleted item) fail here. `--lib`
# keeps the `hetgraph` CLI binary's docs from colliding with the facade
# crate's `hetgraph/index.html`.
step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib

echo
echo "check.sh: all gates passed"
echo "(optional: scripts/bench.sh regenerates BENCH_partition.json,"
echo " BENCH_rebalance.json, BENCH_scale.json, and BENCH_serve.json when"
echo " partitioner, rebalancing, graph-representation, or serving hot"
echo " paths change;"
echo " scripts/bench.sh --check gates a fresh run against the"
echo " committed baselines)"
