//! Partitioner-assignment snapshot: the edge→machine vector is a contract.
//!
//! The fixture `tests/fixtures/partition_snapshot.json` pins the exact
//! `edge_machines()` of every partitioner on small frozen graphs, at
//! uniform and CCR weights and at machine counts covering the grid's
//! square/non-square arrangements. Any partitioner rewrite (streaming
//! fast paths, threading) must reproduce these vectors byte-identically —
//! partitioning feeds every downstream experiment, so a silent assignment
//! drift would invalidate all recorded results.
//!
//! `partition` must agree with the fixture at every thread count as
//! well: it is pinned at 1, 2, and 4 host threads.
//!
//! Regenerate (only when an algorithm intentionally changes) with
//! `HETGRAPH_BLESS=1 cargo test --test partition_snapshot`, and say why
//! in the commit message.

use hetgraph::prelude::*;
use hetgraph_gen::{PowerLawConfig, RmatConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/partition_snapshot.json"
);

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat", RmatConfig::natural(600, 3_600).generate(11)),
        (
            "powerlaw",
            PowerLawConfig::new(500, 2.05)
                .with_max_degree(120)
                .generate(5),
        ),
    ]
}

fn weight_sets() -> Vec<(&'static str, MachineWeights)> {
    vec![
        ("uniform4", MachineWeights::uniform(4)),
        ("uniform9", MachineWeights::uniform(9)),
        ("ccr4", MachineWeights::from_ccr(&[1.0, 2.0, 3.0, 3.5])),
        ("ccr2", MachineWeights::from_ccr(&[1.0, 3.0])),
    ]
}

/// Serialize every (graph, weights, partitioner) cell's edge machines.
fn snapshot_json() -> String {
    let mut cells: Vec<(String, Vec<u16>)> = Vec::new();
    for (gname, graph) in &graphs() {
        for (wname, weights) in &weight_sets() {
            for kind in PartitionerKind::ALL {
                let a = kind.build().partition(graph, weights, 1, &OFF);
                cells.push((
                    format!("{gname}/{wname}/{}", kind.name()),
                    a.edge_machines().to_vec(),
                ));
            }
        }
    }
    serde_json::to_string_pretty(&cells).expect("assignments serialize")
}

#[test]
fn partitioner_assignments_match_snapshot() {
    if std::env::var("HETGRAPH_BLESS").is_ok() {
        let json = snapshot_json();
        std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
        std::fs::write(FIXTURE, &json).unwrap();
        println!("blessed {} bytes into {FIXTURE}", json.len());
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect(
        "fixture missing; regenerate with HETGRAPH_BLESS=1 cargo test --test partition_snapshot",
    );
    let got = snapshot_json();
    assert!(
        got == want,
        "partitioner assignments diverged from the snapshot: first differing \
         byte at offset {:?}",
        got.bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()))
    );
}

#[test]
fn threaded_assignments_match_snapshot_at_every_thread_count() {
    // The snapshot fixture is generated at one host thread; `partition`
    // must reproduce the identical full
    // `PartitionAssignment` (not just edge machines) at 1, 2, and 4 host
    // threads for every cell of the matrix.
    for (gname, graph) in &graphs() {
        for (wname, weights) in &weight_sets() {
            for kind in PartitionerKind::ALL {
                let serial = kind.build().partition(graph, weights, 1, &OFF);
                for threads in [1usize, 2, 4] {
                    let threaded = kind.build().partition(graph, weights, threads, &OFF);
                    assert_eq!(
                        serial,
                        threaded,
                        "{gname}/{wname}/{} diverges at {threads} threads",
                        kind.name()
                    );
                }
            }
        }
    }
}
