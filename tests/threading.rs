//! Determinism and work-dedupe contracts of the threaded sweep harness.
//!
//! The sweep layer (`run_matrix`) promises output byte-identical to a
//! serial quadruple loop at any thread count; the partition memo promises
//! one partition per distinct (graph, partitioner, weight vector). Both
//! are asserted here against a hand-written serial baseline, mirroring
//! the engine's `parallel_matches_sequential_data_exactly`.

use hetgraph_bench::cases::{profile_pool, run_matrix, run_matrix_counted, CaseRow};
use hetgraph_bench::{ExperimentContext, Policy};
use hetgraph_cluster::Cluster;
use hetgraph_core::Graph;
use hetgraph_engine::SimEngine;
use hetgraph_partition::{PartitionMetrics, PartitionerKind};
use hetgraph_profile::CcrPool;

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
                    let assignment = partitioner.partition(graph, &weights);
                    let metrics = PartitionMetrics::compute(&assignment, &weights);
                    let dist = hetgraph_engine::DistributedGraph::new(graph, &assignment)
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
    use hetgraph::prelude::{chrome_trace_sim, TraceRecorder};
    use hetgraph_engine::DistributedGraph;

    let (cluster, pool, graphs) = fixture();
    let graph = &graphs[0].1;
    let app = hetgraph::apps::AnyApp::pagerank();
    let weights = Policy::CcrGuided.weights(&cluster, &pool, app.name());
    let traces: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let recorder = TraceRecorder::new();
            let assignment = PartitionerKind::Hybrid.build().partition_instrumented(
                graph,
                &weights,
                threads,
                &recorder,
                &hetgraph_core::metrics::NOOP,
            );
            let dist = DistributedGraph::new_with_threads(graph, &assignment, threads)
                .expect("assignment must cover the graph");
            let engine = SimEngine::new(&cluster).with_recorder(&recorder);
            app.run(&engine, &dist, threads);
            chrome_trace_sim(&recorder.take_events())
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
