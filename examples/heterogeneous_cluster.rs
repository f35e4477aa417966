//! End-to-end heterogeneous-cluster walkthrough: all four MLDM
//! applications on all five partitioners across the three policies, on the
//! paper's Case 3 cluster (tiny ARM-like node + big Xeon).
//!
//! ```sh
//! cargo run --release --example heterogeneous_cluster
//! ```

use hetgraph::prelude::*;

fn main() {
    let cluster = Cluster::case3();
    println!(
        "Case 3 cluster: {} (4 threads @ {:.1} GHz) + {} (12 threads @ {:.1} GHz)\n",
        cluster.machines()[0].name,
        cluster.machines()[0].freq_ghz,
        cluster.machines()[1].name,
        cluster.machines()[1].freq_ghz,
    );

    // Offline profiling (one representative per machine type).
    let pool = CcrPool::profile(&cluster, &ProxySet::standard(640), &standard_apps());

    // Prior work's view of the same cluster: thread counts only. It cannot
    // see the frequency difference at all.
    let prior = PriorWorkEstimator::new().estimate(&cluster);
    println!("prior-work estimate (app-blind): 1 : {:.1}", prior.spread());
    for set in pool.iter() {
        println!(
            "proxy-profiled CCR[{:22}] = 1 : {:.2}",
            set.app(),
            set.spread()
        );
    }
    println!();

    // The workload: the paper's wiki stand-in, scaled down.
    let graph = NaturalGraph::Wiki.generate(128);
    println!(
        "workload: wiki stand-in, {} vertices / {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let engine = SimEngine::new(&cluster);
    println!(
        "{:22} {:10} {:>12} {:>12} {:>9}",
        "app", "partition", "default_s", "ccr_s", "speedup"
    );
    for app in standard_apps() {
        let ccr = pool.ccr(app.name()).expect("profiled");
        for kind in PartitionerKind::ALL {
            let partitioner = kind.build();
            let uniform = partitioner.partition(&graph, &MachineWeights::uniform(cluster.len()));
            let weighted = partitioner.partition(&graph, &MachineWeights::from_ccr(ccr.ratios()));
            let time = |assignment| {
                let dist = DistributedGraph::new(&graph, assignment).expect("covers the graph");
                app.run(&engine, &dist, 1).makespan_s
            };
            let t_default = time(&uniform);
            let t_ccr = time(&weighted);
            println!(
                "{:22} {:10} {:>12.4} {:>12.4} {:>8.2}x",
                app.name(),
                kind.name(),
                t_default,
                t_ccr,
                t_default / t_ccr
            );
        }
    }

    // Bonus: the actual algorithm outputs are real, not mocked — count the
    // connected components the engine just computed.
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(cluster.len()));
    let dist = DistributedGraph::new(&graph, &assignment).expect("covers the graph");
    let outcome = engine.run(&dist, &ConnectedComponents::new(), 1);
    let sizes = ConnectedComponents::component_sizes(&outcome.data);
    println!(
        "\nconnected components: {} total, largest has {} vertices",
        sizes.len(),
        sizes.first().map(|s| s.1).unwrap_or(0)
    );
}
