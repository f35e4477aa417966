//! Quickstart: profile a heterogeneous cluster with synthetic proxies,
//! partition a graph by the resulting CCR, and run PageRank.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hetgraph::prelude::*;

fn main() {
    // 1. A heterogeneous cluster: one tiny ARM-class node (4 HW threads
    //    at 1.8 GHz) and one beefy Xeon L (12 HW threads at 2.5 GHz) — the
    //    paper's Case 3. Thread counts alone say 1:5; the frequency and
    //    memory-system gap pushes the real ratio past 1:6, which is
    //    invisible to configuration-reading schedulers.
    let cluster = Cluster::case3();
    println!(
        "cluster: {} ({} threads) + {} ({} threads)",
        cluster.machines()[0].name,
        cluster.machines()[0].computing_threads(),
        cluster.machines()[1].name,
        cluster.machines()[1].computing_threads(),
    );

    // 2. Profile it ONCE with synthetic power-law proxy graphs
    //    (Section III of the paper). `scale` shrinks the paper's 3.2M-vertex
    //    proxies to laptop size; the CCRs barely move (see the
    //    `ablation::proxy_size` experiment).
    let proxies = ProxySet::standard(320); // 10k-vertex proxies
    let pool = CcrPool::profile(&cluster, &proxies, &standard_apps(), 1, &OFF);
    for set in pool.iter() {
        println!("profiled CCR[{:22}] = 1 : {:.2}", set.app(), set.spread());
    }

    // 3. A workload arrives: here a dense synthetic power-law graph
    //    standing in for a freshly downloaded natural graph (the degree
    //    cap keeps its hub size natural-graph-like; an uncapped clean
    //    power law at this vertex count would be one giant star).
    let graph = PowerLawConfig::new(20_000, 1.95)
        .with_max_degree(600)
        .generate(7);
    println!(
        "\ninput graph: {} vertices, {} edges (alpha fitted from counts: {:.2})",
        graph.num_vertices(),
        graph.num_edges(),
        fit_alpha(graph.num_vertices() as u64, graph.num_edges() as u64)
            .expect("fittable")
            .alpha,
    );

    // 4. Partition it three ways and compare the simulated runtimes of
    //    Connected Components (the compute-bound workload where capability
    //    mis-estimates translate directly into barrier time; see
    //    `exp_fig10` for the full four-application comparison).
    //    The three policies weigh the machines uniformly (PowerGraph's
    //    default), by thread counts (prior work), or by the profiled CCR.
    let engine = SimEngine::new(&cluster);
    println!();
    let mut baseline = None;
    for policy in Policy::ALL {
        let weights = policy.weights(&cluster, &pool, "connected_components");
        // Random hash spreads edges at the finest grain, so realized loads
        // track the target weights tightly — the cleanest first look at the
        // three policies. Try `Hybrid::new()` or `Ginger::new()` for the
        // lower-replication mixed cuts.
        let assignment = RandomHash::new().partition(&graph, &weights, 1, &OFF);
        let dist = DistributedGraph::new(&graph, &assignment, 1).expect("covers the graph");
        let outcome = engine.run(&dist, &ConnectedComponents::new(), 1);
        let t = outcome.report.makespan_s;
        let base = *baseline.get_or_insert(t);
        println!(
            "{:10} -> {:.4}s  (speedup over default: {:.2}x, energy {:.1} J)",
            policy.name(),
            t,
            base / t,
            outcome.report.total_energy_j(),
        );
    }
}
