//! Superstep-kernel snapshot: the simulated report is a contract.
//!
//! The fixture `tests/fixtures/engine_snapshot.json` was captured from the
//! serial reference engine *before* the serial and parallel loops were
//! collapsed into one kernel. The unified kernel must reproduce it
//! byte-identically — same vertex effects, same work attribution, same
//! floating-point times — at 1, 2, and 4 host threads, over a grid of
//! (graph, cluster, partitioner, app) cells with tracing enabled.
//!
//! Regenerate (only when the simulation model intentionally changes) with
//! `HETGRAPH_BLESS=1 cargo test --test engine_snapshot`, and say why in
//! the commit message.

use hetgraph::apps::{Coloring, ConnectedComponents, KCore, PageRank, Sssp, TriangleCount};
use hetgraph::prelude::*;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/engine_snapshot.json"
);

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat", RmatConfig::natural(1_200, 7_200).generate(7)),
        (
            "powerlaw",
            PowerLawConfig::new(900, 2.05)
                .with_max_degree(200)
                .generate(3),
        ),
    ]
}

fn clusters() -> Vec<(&'static str, Cluster)> {
    vec![("case2", Cluster::case2()), ("case3", Cluster::case3())]
}

const PARTITIONERS: [PartitionerKind; 2] = [PartitionerKind::RandomHash, PartitionerKind::Hybrid];

/// Run every app in the grid cell at `threads` and serialize the reports.
///
/// Uses the raw `GasProgram` values (not the app registry) on purpose:
/// this pins the *kernel*, independent of any dispatch layer above it.
fn grid_json(threads: usize) -> String {
    let mut cells: Vec<(String, SimReport)> = Vec::new();
    for (gname, graph) in &graphs() {
        for (cname, cluster) in &clusters() {
            // An enabled recorder turns on per-step tracing, exactly as
            // the old `with_trace(true)` flag did; the serialized report
            // is unchanged (trace events live beside it, not inside it).
            let recorder = TraceRecorder::new();
            let engine = SimEngine::new(cluster).with_recorder(&recorder);
            for kind in PARTITIONERS {
                let assignment = kind
                    .build()
                    .partition(graph, &MachineWeights::uniform(cluster.len()));
                let dist = DistributedGraph::new_with_threads(graph, &assignment, threads)
                    .expect("assignment must cover the graph");
                macro_rules! cell {
                    ($name:literal, $prog:expr) => {{
                        let prog = $prog;
                        let report = engine.run(&dist, &prog, threads).report;
                        cells.push((format!("{gname}/{cname}/{}/{}", kind.name(), $name), report));
                    }};
                }
                cell!("pagerank", PageRank::new(8));
                cell!("coloring", Coloring::new());
                cell!("connected_components", ConnectedComponents::new());
                cell!("triangle_count", TriangleCount::for_graph(graph));
                cell!("sssp", Sssp::new(0));
                cell!("kcore", KCore::new(3));
            }
        }
    }
    serde_json::to_string_pretty(&cells).expect("reports serialize")
}

#[test]
fn unified_kernel_reproduces_prerefactor_serial_reports() {
    if std::env::var("HETGRAPH_BLESS").is_ok() {
        let json = grid_json(1);
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &json).unwrap();
        println!("blessed {} bytes into {FIXTURE}", json.len());
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect(
        "fixture missing; regenerate with HETGRAPH_BLESS=1 cargo test --test engine_snapshot",
    );
    for threads in [1usize, 2, 4] {
        let got = grid_json(threads);
        assert!(
            got == want,
            "superstep kernel diverged from the pre-refactor serial snapshot at \
             {threads} thread(s): first differing byte at offset {:?}",
            got.bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.len().min(want.len()))
        );
    }
}
