//! End-to-end correctness: every application must produce exactly the
//! sequential reference result, on every partitioner, on every cluster
//! shape. Placement may change *when* things run, never *what* they
//! compute.

use hetgraph::apps::reference;
use hetgraph::apps::triangle_count::orient_by_degree;
use hetgraph::apps::{KCore, Sssp, TriangleCount};
use hetgraph::prelude::*;

/// Build the view of `a` over `g` and run `program` on it.
fn run<P: GasProgram>(
    engine: &SimEngine<'_>,
    g: &Graph,
    a: &hetgraph::partition::PartitionAssignment,
    program: &P,
    threads: usize,
) -> SimOutcome<P::VertexData> {
    let dist = DistributedGraph::new(g, a, threads).expect("assignment must cover the graph");
    engine.run(&dist, program, threads)
}

fn workload() -> Graph {
    RmatConfig::natural(3_000, 24_000).generate(42)
}

fn clusters() -> Vec<Cluster> {
    vec![
        Cluster::case1(),
        Cluster::case2(),
        Cluster::case3(),
        Cluster::new(vec![
            catalog::c4_xlarge(),
            catalog::c4_2xlarge(),
            catalog::c4_4xlarge(),
            catalog::c4_8xlarge(),
        ]),
    ]
}

fn all_assignments(
    graph: &Graph,
    cluster: &Cluster,
) -> Vec<(String, hetgraph::partition::PartitionAssignment)> {
    let mut out = Vec::new();
    for kind in PartitionerKind::ALL {
        for (wname, weights) in [
            ("uniform", MachineWeights::uniform(cluster.len())),
            ("threads", MachineWeights::from_thread_counts(cluster)),
        ] {
            out.push((
                format!("{}/{}", kind.name(), wname),
                kind.build().partition(graph, &weights, 1, &OFF),
            ));
        }
    }
    out
}

#[test]
fn pagerank_identical_across_all_placements() {
    let g = workload();
    let want = reference::pagerank_ref(&g, 8, hetgraph::apps::pagerank::DAMPING);
    for cluster in clusters() {
        let engine = SimEngine::new(&cluster);
        for (label, a) in all_assignments(&g, &cluster) {
            let got = run(&engine, &g, &a, &PageRank::new(8), 1).data;
            for (v, (x, y)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (x - y).abs() < 1e-12,
                    "pagerank diverged at v{v} under {label} on {}",
                    cluster.machines()[0].name
                );
            }
        }
    }
}

#[test]
fn connected_components_identical_across_all_placements() {
    let g = workload();
    let want = reference::connected_components_ref(&g);
    for cluster in clusters() {
        let engine = SimEngine::new(&cluster);
        for (label, a) in all_assignments(&g, &cluster) {
            let out = run(&engine, &g, &a, &ConnectedComponents::new(), 1);
            assert!(out.report.converged, "{label}: CC did not converge");
            assert_eq!(out.data, want, "CC labels diverged under {label}");
        }
    }
}

#[test]
fn coloring_proper_across_all_placements() {
    let g = workload();
    for cluster in clusters() {
        let engine = SimEngine::new(&cluster);
        for (label, a) in all_assignments(&g, &cluster) {
            let out = run(&engine, &g, &a, &Coloring::new(), 1);
            assert!(out.report.converged, "{label}: coloring did not converge");
            assert!(
                Coloring::is_proper(&g, &out.data),
                "improper coloring under {label}"
            );
        }
    }
}

#[test]
fn triangle_count_identical_across_all_placements() {
    let g = orient_by_degree(&workload());
    let want = reference::triangle_count_ref(&workload());
    for cluster in clusters() {
        let engine = SimEngine::new(&cluster);
        let tc = TriangleCount::for_graph(&g);
        for (label, a) in all_assignments(&g, &cluster) {
            let got = TriangleCount::total(&run(&engine, &g, &a, &tc, 1).data);
            assert_eq!(got, want, "triangle count diverged under {label}");
        }
    }
}

#[test]
fn sssp_and_kcore_identical_across_placements_and_thread_counts() {
    // The extension apps must match their sequential references exactly —
    // on every partitioner/weighting, and at every host-thread budget.
    // The unified kernel makes thread count an execution detail: 1, 2 and
    // 4 workers must all produce byte-identical vertex data.
    let g = workload();
    let want_d = reference::sssp_ref(&g, 5);
    let want_k = reference::kcore_ref(&g, 3);
    let cluster = Cluster::case3();
    let engine = SimEngine::new(&cluster);
    for (label, a) in all_assignments(&g, &cluster) {
        for threads in [1, 2, 4] {
            assert_eq!(
                run(&engine, &g, &a, &Sssp::new(5), threads).data,
                want_d,
                "sssp under {label} with {threads} thread(s)"
            );
            assert_eq!(
                run(&engine, &g, &a, &KCore::new(3), threads).data,
                want_k,
                "kcore under {label} with {threads} thread(s)"
            );
        }
    }
}

#[test]
fn simulation_reports_are_deterministic() {
    let g = workload();
    let cluster = Cluster::case2();
    let engine = SimEngine::new(&cluster);
    let a = Hybrid::new().partition(&g, &MachineWeights::from_ccr(&[1.0, 3.5]), 1, &OFF);
    let r1 = run(&engine, &g, &a, &PageRank::new(5), 1).report;
    let r2 = run(&engine, &g, &a, &PageRank::new(5), 1).report;
    assert_eq!(r1, r2);
    assert!(r1.makespan_s > 0.0);
}

#[test]
fn every_partitioner_covers_every_edge() {
    let g = workload();
    for cluster in clusters() {
        for (label, a) in all_assignments(&g, &cluster) {
            let total: usize = a.edges_per_machine().iter().sum();
            assert_eq!(total, g.num_edges(), "{label} lost edges");
            assert!(a.replication_factor() >= 1.0, "{label}");
            assert!(
                a.replication_factor() <= cluster.len() as f64,
                "{label}: rf {} exceeds machine count",
                a.replication_factor()
            );
        }
    }
}
