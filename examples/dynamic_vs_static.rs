//! Static proxy profiling vs dynamic (Mizan-style) migration.
//!
//! The paper argues that a good *static* capability estimate removes the
//! need for dynamic load rebalancing. This example runs the feedback
//! balancer — which migrates load between epochs based on observed
//! imbalance — from three different starting points and shows how many
//! expensive re-ingest epochs each needs.
//!
//! ```sh
//! cargo run --release --example dynamic_vs_static
//! ```

use hetgraph::prelude::*;

fn main() {
    let cluster = Cluster::case2();
    let graph = NaturalGraph::Citation.generate(256);
    println!(
        "cluster: {} + {} | workload: citation stand-in ({} vertices, {} edges)\n",
        cluster.machines()[0].name,
        cluster.machines()[1].name,
        graph.num_vertices(),
        graph.num_edges(),
    );

    let pool = CcrPool::profile(
        &cluster,
        &ProxySet::standard(640),
        &standard_apps(),
        1,
        &OFF,
    );
    let app = AnyApp::pagerank();
    let balancer = FeedbackBalancer::default();

    for policy in Policy::ALL {
        let weights = policy.weights(&cluster, &pool, app.name());
        println!("starting from {policy} weights:");
        let history = balancer.run(&cluster, &graph, &app, &RandomHash::new(), weights);
        for epoch in &history {
            let w: Vec<String> = epoch.weights.iter().map(|x| format!("{x:.2}")).collect();
            println!(
                "  epoch {}: weights [{}]  makespan {:.4}s  imbalance {:.2}",
                epoch.epoch,
                w.join(", "),
                epoch.makespan_s,
                epoch.imbalance
            );
        }
        match FeedbackBalancer::epochs_to_balance(&history, 1.25) {
            Some(0) => println!("  -> balanced from the start; no migration needed\n"),
            Some(e) => println!("  -> needed {e} migration epoch(s)\n"),
            None => println!("  -> never reached balance within the budget\n"),
        }
    }
    println!(
        "Reading: dynamic migration eventually fixes any starting point, but\n\
         each epoch re-ingests the graph; proxy-profiled CCR weights start\n\
         balanced and skip that cost entirely — the paper's core argument."
    );
}
