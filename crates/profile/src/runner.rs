//! Communication-free single-machine profiling runs.
//!
//! The paper measures each machine group's graph processing speed by
//! running the profiling set on one machine *in isolation*, so the
//! measurement captures pure computational capability. We reproduce that
//! by simulating on a one-machine cluster: every edge is local, there are
//! no mirrors, and the network contributes only the per-superstep barrier.
//!
//! **Profile once, price per machine type.** On one machine, the work a
//! run does — every edge scanned, vertex applied, superstep taken — lands
//! on that machine whatever its specs, so it cannot depend on which
//! machine it is. Each (application, graph) pair is therefore executed
//! once, as a [`SimEngine::trace`], and the recorded work is priced for
//! every machine with [`SimEngine::price`]. Pricing goes through the
//! kernel's own pricing body, so each time is bit-identical to running
//! the application on that machine; only the host work of the repeated
//! partition, view build and kernel run is gone.

use hetgraph_apps::AnyApp;
use hetgraph_cluster::{Cluster, MachineSpec};
use hetgraph_core::{obs::OFF, Graph};
use hetgraph_engine::{DistributedGraph, SimEngine};
use hetgraph_partition::{MachineWeights, PartitionAssignment, Partitioner, RandomHash};

/// Simulated wall-clock seconds for `app` on `graph` executed entirely on
/// `machine` (the paper's per-machine profiling run).
pub fn single_machine_time(machine: &MachineSpec, app: &AnyApp, graph: &Graph) -> f64 {
    profiling_set_time(machine, app, std::slice::from_ref(graph))
}

/// Profiling-set time: the sum over several graphs (the paper combines
/// each application with every synthetic graph into one profiling set).
pub fn profiling_set_time(machine: &MachineSpec, app: &AnyApp, graphs: &[Graph]) -> f64 {
    profiling_set_times(std::slice::from_ref(machine), app, graphs)[0]
}

/// [`profiling_set_time`] for every machine in `machines`, in order, from
/// one traced run of `app` per graph: entry `j` is bit-identical to
/// `profiling_set_time(&machines[j], app, graphs)`.
pub fn profiling_set_times(machines: &[MachineSpec], app: &AnyApp, graphs: &[Graph]) -> Vec<f64> {
    let per_graph: Vec<Vec<f64>> = graphs
        .iter()
        .map(|g| {
            let assignment = isolated(g);
            let dist =
                DistributedGraph::new(g, &assignment, 1).expect("assignment must cover the graph");
            machine_times(machines, app, &dist)
        })
        .collect();
    sum_per_machine(machines.len(), &per_graph)
}

/// The one-machine placement every profiling run uses.
pub(crate) fn isolated(graph: &Graph) -> PartitionAssignment {
    RandomHash::new().partition(graph, &MachineWeights::uniform(1), 1, &OFF)
}

/// Simulated seconds of `app` over the one-machine view `dist` on each of
/// `machines`: one traced run, priced per machine.
pub(crate) fn machine_times(
    machines: &[MachineSpec],
    app: &AnyApp,
    dist: &DistributedGraph<'_>,
) -> Vec<f64> {
    let Some(first) = machines.first() else {
        return Vec::new();
    };
    let one = |m: &MachineSpec| Cluster::new(vec![m.clone()]);
    let (_, trace) = app
        .trace(&SimEngine::new(&one(first)), dist, 1)
        .expect("a plain one-machine view traces on a one-machine cluster");
    machines
        .iter()
        .map(|m| {
            SimEngine::new(&one(m))
                .price(&trace)
                .expect("a one-machine trace prices on a one-machine cluster")
                .makespan_s
        })
        .collect()
}

/// Per-machine sums over parts (`per_part[k][j]` is part `k` on machine
/// `j`), each folded in part order — the same association as summing one
/// machine's part times directly.
pub(crate) fn sum_per_machine(machines: usize, per_part: &[Vec<f64>]) -> Vec<f64> {
    (0..machines)
        .map(|j| per_part.iter().map(|t| t[j]).sum())
        .collect()
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

    /// One trace priced per machine equals running every app on every
    /// Table I machine directly and summing the makespans in graph order.
    #[test]
    fn priced_times_equal_direct_runs_on_every_table1_machine() {
        let graphs = [
            PowerLawConfig::new(900, 2.0).generate(5),
            PowerLawConfig::new(700, 2.4).generate(6),
            PowerLawConfig::new(500, 2.2).generate(7),
        ];
        let machines = catalog::table1();
        for app in hetgraph_apps::full_apps() {
            let priced = profiling_set_times(&machines, &app, &graphs);
            let direct: Vec<f64> = machines
                .iter()
                .map(|m| {
                    let cluster = Cluster::new(vec![m.clone()]);
                    graphs
                        .iter()
                        .map(|g| {
                            let a = isolated(g);
                            let dist = DistributedGraph::new(g, &a, 1)
                                .expect("assignment must cover the graph");
                            app.run(&SimEngine::new(&cluster), &dist, 1).makespan_s
                        })
                        .sum()
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&priced), bits(&direct), "{app}");
        }
        assert!(profiling_set_times(&[], &AnyApp::pagerank(), &graphs).is_empty());
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
