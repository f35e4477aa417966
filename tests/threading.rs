//! Determinism and work-dedupe contracts of the threaded sweep harness.
//!
//! The sweep layer (`run_matrix`) promises output byte-identical to a
//! serial quadruple loop at any thread count; the partition memo promises
//! one partition per distinct (graph, partitioner, weight vector). Both
//! are asserted here against a hand-written serial baseline, mirroring
//! the engine's `parallel_matches_sequential_data_exactly`.

use hetgraph_bench::cases::{profile_pool, run_matrix, run_matrix_counted, CaseRow};
use hetgraph_bench::ExperimentContext;
use hetgraph_cluster::Cluster;
use hetgraph_core::{obs::OFF, Graph};
use hetgraph_engine::SimEngine;
use hetgraph_partition::{PartitionMetrics, PartitionerKind};
use hetgraph_profile::{CcrPool, Policy};

const PARTITIONERS: [PartitionerKind; 2] = [PartitionerKind::RandomHash, PartitionerKind::Ginger];

fn fixture() -> (Cluster, CcrPool, Vec<(String, Graph)>) {
    let ctx = ExperimentContext::at_scale(2048);
    let cluster = Cluster::case2();
    let pool = profile_pool(&cluster, &ctx);
    let graphs = vec![ctx.natural_graphs().remove(0)];
    (cluster, pool, graphs)
}

/// The pre-memo, pre-threading reference: partition and simulate every
/// cell from scratch in nested-loop order.
fn serial_baseline(cluster: &Cluster, pool: &CcrPool, graphs: &[(String, Graph)]) -> Vec<CaseRow> {
    let engine = SimEngine::new(cluster);
    let mut rows = Vec::new();
    for (gname, graph) in graphs {
        for kind in PARTITIONERS {
            let partitioner = kind.build();
            for app in hetgraph::apps::standard_apps() {
                for policy in Policy::ALL {
                    let weights = policy.weights(cluster, pool, app.name());
                    let assignment = partitioner.partition(graph, &weights, 1, &OFF);
                    let metrics = PartitionMetrics::compute(&assignment, &weights, 1);
                    let dist = hetgraph_engine::DistributedGraph::new(graph, &assignment, 1)
                        .expect("assignment must cover the graph");
                    let report = app.run(&engine, &dist, 1);
                    rows.push(CaseRow {
                        app: app.name().to_string(),
                        graph: gname.clone(),
                        partitioner: kind.name().to_string(),
                        policy: policy.name().to_string(),
                        makespan_s: report.makespan_s,
                        energy_j: report.total_energy_j(),
                        replication_factor: metrics.replication_factor,
                    });
                }
            }
        }
    }
    rows
}

#[test]
fn run_matrix_is_golden_across_thread_counts() {
    let (cluster, pool, graphs) = fixture();
    let baseline = serial_baseline(&cluster, &pool, &graphs);
    for threads in [1, 2, 4] {
        let rows = run_matrix(
            &cluster,
            &pool,
            &graphs,
            &PARTITIONERS,
            &Policy::ALL,
            &hetgraph::apps::standard_apps(),
            threads,
        );
        assert_eq!(rows.len(), baseline.len(), "{threads} threads");
        for (got, want) in rows.iter().zip(&baseline) {
            // Data and counters must match exactly...
            assert_eq!(got.app, want.app, "{threads} threads");
            assert_eq!(got.graph, want.graph, "{threads} threads");
            assert_eq!(got.partitioner, want.partitioner, "{threads} threads");
            assert_eq!(got.policy, want.policy, "{threads} threads");
            assert_eq!(
                got.replication_factor, want.replication_factor,
                "{threads} threads: {}/{}/{}",
                got.app, got.partitioner, got.policy
            );
            // ...simulated seconds within floating-point re-association.
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
            assert!(
                rel(got.makespan_s, want.makespan_s) < 1e-9,
                "{threads} threads: makespan {} vs {}",
                got.makespan_s,
                want.makespan_s
            );
            assert!(
                rel(got.energy_j, want.energy_j) < 1e-9,
                "{threads} threads: energy {} vs {}",
                got.energy_j,
                want.energy_j
            );
        }
    }
}

#[test]
fn sim_trace_bytes_are_identical_across_thread_counts() {
    // The observability determinism contract: simulated-time trace
    // events are emitted only from the engine's serial timing section,
    // so the Chrome export of the simulated timeline is byte-identical
    // at any host thread budget. (Wall-domain events are host timing
    // and legitimately vary; `chrome_trace_sim` excludes them.)
    use hetgraph::prelude::{chrome_trace_sim, Telemetry};
    use hetgraph_engine::DistributedGraph;

    let (cluster, pool, graphs) = fixture();
    let graph = &graphs[0].1;
    let app = hetgraph::apps::AnyApp::pagerank();
    let weights = Policy::CcrGuided.weights(&cluster, &pool, app.name());
    let traces: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let telemetry = Telemetry::new(true, false);
            let assignment = PartitionerKind::Hybrid
                .build()
                .partition(graph, &weights, threads, &telemetry);
            let dist = DistributedGraph::new(graph, &assignment, threads)
                .expect("assignment must cover the graph");
            let engine = SimEngine::new(&cluster).with_telemetry(&telemetry);
            app.run(&engine, &dist, threads);
            chrome_trace_sim(&telemetry.take_events())
        })
        .collect();
    assert!(traces[0].contains("barrier_wait"), "trace has attribution");
    assert_eq!(traces[0], traces[1], "1 vs 2 threads");
    assert_eq!(traces[0], traces[2], "1 vs 4 threads");
}

#[test]
fn partition_memo_dedupes_shared_weight_vectors() {
    let (cluster, pool, graphs) = fixture();
    // 1 graph x 1 partitioner x 4 apps x 3 policies = 12 cells, but only
    // 6 distinct weight vectors: uniform (default), thread-count (prior),
    // and one CCR vector per app.
    let (rows, stats) = run_matrix_counted(
        &cluster,
        &pool,
        &graphs,
        &[PartitionerKind::RandomHash],
        &Policy::ALL,
        &hetgraph::apps::standard_apps(),
        2,
    );
    assert_eq!(rows.len(), 12);
    assert_eq!(stats.cells, 12);
    assert_eq!(
        stats.partitions_computed, 6,
        "partition calls must collapse to distinct weight vectors"
    );
    // A second partitioner doubles the partition work, nothing more.
    let (_, stats2) = run_matrix_counted(
        &cluster,
        &pool,
        &graphs,
        &PARTITIONERS,
        &Policy::ALL,
        &hetgraph::apps::standard_apps(),
        2,
    );
    assert_eq!(stats2.cells, 24);
    assert_eq!(stats2.partitions_computed, 12);
}

/// The six `#[doc(hidden)]` spellings that `benchmark/src/layers.rs` still
/// names, with the file that defines each. Everything else passes threads
/// and telemetry as arguments of the one method per operation.
const RULER_FORWARDS: [(&str, &str); 6] = [
    ("partition_with_threads", "crates/partition/src/traits.rs"),
    ("profile_with_threads", "crates/profile/src/ccr.rs"),
    ("new_with_threads", "crates/engine/src/distributed.rs"),
    ("compute_with_threads", "crates/partition/src/metrics.rs"),
    ("run_on_with_threads", "crates/engine/src/sim.rs"),
    ("run_compact_on_with_threads", "crates/engine/src/sim.rs"),
];

/// Every `.rs` file under `dir` (relative to the workspace root), sorted.
fn rust_sources(dir: &str) -> Vec<std::path::PathBuf> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir),
        &mut out,
    );
    out.sort();
    out
}

/// `path` relative to the workspace root, with `/` separators.
fn relative(path: &std::path::Path) -> String {
    path.strip_prefix(env!("CARGO_MANIFEST_DIR"))
        .expect("under the workspace root")
        .to_string_lossy()
        .replace('\\', "/")
}

/// Whether `line`, with any `//` comment cut off, names `ident` as a whole
/// word; a `fn ident` definition counts separately.
fn names(line: &str, ident: &str) -> (bool, bool) {
    let code = line.split("//").next().unwrap_or("");
    let mut used = false;
    let mut defined = false;
    for (at, _) in code.match_indices(ident) {
        let before = code[..at].chars().next_back();
        let after = code[at + ident.len()..].chars().next();
        let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if word(before) || word(after) {
            continue;
        }
        if code[..at].trim_end().ends_with("fn") {
            defined = true;
        } else {
            used = true;
        }
    }
    (used, defined)
}

#[test]
fn ruler_forwards_have_no_other_caller_and_no_new_suffix_rungs() {
    let this_file = "tests/threading.rs";
    let mut offenders = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        for path in rust_sources(dir) {
            let rel = relative(&path);
            if rel == this_file {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            // Library code is everything outside a top-level
            // `#[cfg(test)]` item: from that attribute to the item's
            // closing brace in column 0 (rustfmt layout), or its `;`.
            let library = rel.contains("/src/") || rel.starts_with("src/");
            let mut in_tests = false;
            let mut test_item_open = false;
            for (i, line) in text.lines().enumerate() {
                if line.starts_with("#[cfg(test)]") {
                    in_tests = true;
                } else if in_tests && !test_item_open && !line.starts_with("#[") {
                    test_item_open = !line.trim_end().ends_with(';');
                    in_tests = test_item_open;
                } else if in_tests && line == "}" {
                    (in_tests, test_item_open) = (false, false);
                    continue;
                }
                for (ident, home) in RULER_FORWARDS {
                    let (used, defined) = names(line, ident);
                    if used || (defined && rel != home) {
                        offenders.push(format!("{rel}:{}: {ident}", i + 1));
                    }
                }
                if library && !in_tests {
                    let code = line.split("//").next().unwrap_or("");
                    for word in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                        let rung =
                            word.ends_with("_with_threads") || word.ends_with("_instrumented");
                        let fenced = RULER_FORWARDS.iter().any(|(ident, _)| *ident == word);
                        if rung && !fenced && names(code, word).1 {
                            offenders.push(format!("{rel}:{}: fn {word}", i + 1));
                        }
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "threads and telemetry are arguments, not method suffixes; the six \
         ruler forwards are for benchmark/src/layers.rs only:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn ruler_forwards_return_exactly_what_the_one_method_returns() {
    use hetgraph::prelude::{
        ConnectedComponents, DistributedGraph, MachineWeights, PowerLawConfig, ProxySet,
    };
    use hetgraph_engine::CompactDistGraph;

    let graph = PowerLawConfig::new(20_000, 2.0).generate(7);
    let cluster = Cluster::case2();
    let weights = MachineWeights::from_ccr(&[1.0, 3.0]);
    let engine = SimEngine::new(&cluster);
    let proxies = ProxySet::standard(6400);
    let apps = [hetgraph::apps::AnyApp::pagerank()];
    for threads in [1, 2] {
        for kind in PartitionerKind::ALL {
            let p = kind.build();
            assert_eq!(
                p.partition_with_threads(&graph, &weights, threads),
                p.partition(&graph, &weights, threads, &OFF),
                "{kind} at {threads}"
            );
        }
        let a = PartitionerKind::Hybrid
            .build()
            .partition(&graph, &weights, threads, &OFF);
        assert_eq!(
            PartitionMetrics::compute_with_threads(&a, &weights, threads),
            PartitionMetrics::compute(&a, &weights, threads),
            "metrics at {threads}"
        );
        let dist = DistributedGraph::new(&graph, &a, threads).expect("covers the graph");
        let forward =
            DistributedGraph::new_with_threads(&graph, &a, threads).expect("covers the graph");
        assert_eq!(forward.assignment(), dist.assignment());
        for v in graph.vertices() {
            assert_eq!(forward.out_adj(v), dist.out_adj(v), "out {v} at {threads}");
            assert_eq!(forward.in_adj(v), dist.in_adj(v), "in {v} at {threads}");
        }
        assert_eq!(
            CcrPool::profile_with_threads(&cluster, &proxies, &apps, threads),
            CcrPool::profile(&cluster, &proxies, &apps, threads, &OFF),
            "pool at {threads}"
        );
        let program = ConnectedComponents::new();
        let run = engine.run(&dist, &program, threads);
        let plain = engine.run_on_with_threads(&dist, &program, threads);
        assert_eq!(plain.data, run.data, "plain data at {threads}");
        assert_eq!(plain.report, run.report, "plain report at {threads}");
        let compact = CompactDistGraph::from_dist(&dist);
        let run = engine.run(&compact, &program, threads);
        let forward = engine.run_compact_on_with_threads(&compact, &program, threads);
        assert_eq!(forward.data, run.data, "compact data at {threads}");
        assert_eq!(forward.report, run.report, "compact report at {threads}");
    }
}
