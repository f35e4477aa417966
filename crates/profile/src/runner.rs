//! Communication-free single-machine profiling runs.
//!
//! The paper measures each machine group's graph processing speed by
//! running the profiling set on one machine *in isolation*, so the
//! measurement captures pure computational capability. We reproduce that
//! by simulating on a one-machine cluster: every edge is local, there are
//! no mirrors, and the network contributes only the per-superstep barrier.

use hetgraph_apps::AnyApp;
use hetgraph_cluster::{Cluster, MachineSpec};
use hetgraph_core::Graph;
use hetgraph_engine::{DistributedGraph, SimEngine};
use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};

/// Simulated wall-clock seconds for `app` on `graph` executed entirely on
/// `machine` (the paper's per-machine profiling run).
pub fn single_machine_time(machine: &MachineSpec, app: &AnyApp, graph: &Graph) -> f64 {
    let cluster = Cluster::new(vec![machine.clone()]);
    let assignment = RandomHash::new().partition(graph, &MachineWeights::uniform(1));
    let dist = DistributedGraph::new(graph, &assignment).expect("assignment must cover the graph");
    let engine = SimEngine::new(&cluster);
    app.run(&engine, &dist, 1).makespan_s
}

/// Profiling-set time: the sum over several graphs (the paper combines
/// each application with every synthetic graph into one profiling set).
pub fn profiling_set_time(machine: &MachineSpec, app: &AnyApp, graphs: &[Graph]) -> f64 {
    graphs
        .iter()
        .map(|g| single_machine_time(machine, app, g))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::catalog;
    use hetgraph_gen::PowerLawConfig;

    fn graph() -> Graph {
        PowerLawConfig::new(1_500, 2.1).generate(11)
    }

    #[test]
    fn faster_machine_finishes_sooner() {
        let g = graph();
        for app in hetgraph_apps::full_apps() {
            let slow = single_machine_time(&catalog::xeon_s(), &app, &g);
            let fast = single_machine_time(&catalog::xeon_l(), &app, &g);
            assert!(fast < slow, "{app}: fast {fast} !< slow {slow}");
        }
    }

    #[test]
    fn times_are_deterministic() {
        let g = graph();
        let a = single_machine_time(&catalog::c4_xlarge(), &AnyApp::pagerank(), &g);
        let b = single_machine_time(&catalog::c4_xlarge(), &AnyApp::pagerank(), &g);
        assert_eq!(a, b);
    }

    #[test]
    fn profiling_set_sums_graphs() {
        let g1 = PowerLawConfig::new(800, 2.0).generate(1);
        let g2 = PowerLawConfig::new(800, 2.3).generate(2);
        let m = catalog::xeon_s();
        let cc = AnyApp::connected_components();
        let set = profiling_set_time(&m, &cc, &[g1.clone(), g2.clone()]);
        let separate = single_machine_time(&m, &cc, &g1) + single_machine_time(&m, &cc, &g2);
        assert!((set - separate).abs() < 1e-12);
    }

    #[test]
    fn pagerank_saturates_on_big_machines() {
        // The Fig 2 phenomenon, measured through the profiling interface:
        // PageRank's gain from 4xlarge to 8xlarge is much smaller than
        // TriangleCount's.
        let g = graph();
        let gain = |app: &AnyApp| {
            single_machine_time(&catalog::c4_4xlarge(), app, &g)
                / single_machine_time(&catalog::c4_8xlarge(), app, &g)
        };
        let pr = gain(&AnyApp::pagerank());
        let tc = gain(&AnyApp::triangle_count());
        assert!(tc > pr, "tc gain {tc} should exceed pagerank gain {pr}");
        assert!(pr < 1.35, "pagerank should saturate, got gain {pr}");
    }
}
