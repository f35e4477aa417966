//! Partitioner playground: compare replication factor and weighted balance
//! of all five algorithms on graphs of very different character, under
//! uniform and skewed machine weights.
//!
//! ```sh
//! cargo run --release --example partition_playground
//! ```

use hetgraph::gen::{structured, uniform};
use hetgraph::prelude::*;

fn main() {
    let graphs: Vec<(&str, hetgraph::core::Graph)> = vec![
        (
            "power_law(a=2.0)",
            PowerLawConfig::new(30_000, 2.0).generate(1),
        ),
        (
            "rmat_natural",
            RmatConfig::natural(30_000, 240_000).generate(2),
        ),
        ("uniform_gnm", uniform::gnm(30_000, 240_000, 3)),
        ("grid_200x150", structured::grid(200, 150)),
    ];

    for (weights_name, weights) in [
        ("uniform x4", MachineWeights::uniform(4)),
        (
            "CCR 1:2:3:4",
            MachineWeights::from_ccr(&[1.0, 2.0, 3.0, 4.0]),
        ),
    ] {
        println!("== weights: {weights_name} ==");
        println!(
            "{:18} {:10} {:>6} {:>10} {:>12} {:>12}",
            "graph", "algorithm", "rf", "mirrors", "max_nl", "balance_err"
        );
        for (gname, graph) in &graphs {
            for kind in PartitionerKind::ALL {
                let assignment = kind.build().partition(graph, &weights, 1, &OFF);
                let m = PartitionMetrics::compute(&assignment, &weights, 1);
                println!(
                    "{:18} {:10} {:>6.2} {:>10} {:>12.3} {:>12.3}",
                    gname,
                    kind.name(),
                    m.replication_factor,
                    m.total_mirrors,
                    m.max_normalized_load,
                    m.weighted_balance_error
                );
            }
        }
        println!();
    }
    println!(
        "Reading: mixed cuts (hybrid/ginger) shine on skewed graphs; on the\n\
         regular grid every algorithm replicates little; random hash always\n\
         balances best but replicates most."
    );
}
