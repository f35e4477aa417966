//! Connected Components by label propagation.
//!
//! Every vertex starts with its own id as label; each superstep it adopts
//! the minimum label among itself and its (in + out) neighbors. At
//! convergence all vertices in one weakly-connected component share the
//! component's minimum vertex id — and the engine's final data is exactly
//! the component labeling the paper's application reports (components plus
//! their sizes follow by aggregation).
//!
//! Hardware character: balanced compute/memory; scales near-linearly with
//! threads in Fig 2 (its profile carries the largest serial fraction of
//! the linear-scaling apps, from the convergence check on the hot path).

use hetgraph_cluster::AppProfile;
use hetgraph_core::{GraphMeta, VertexId};
use hetgraph_engine::{Direction, GasProgram};

/// Connected-components vertex program (weak connectivity).
#[derive(Debug, Clone, Default)]
pub struct ConnectedComponents {}

impl ConnectedComponents {
    /// Default construction.
    pub fn new() -> Self {
        ConnectedComponents {}
    }

    /// The ground-truth hardware profile (see crate docs).
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "connected_components".into(),
            edge_flops: 80.0,
            edge_bytes: 48.0,
            vertex_flops: 20.0,
            vertex_bytes: 12.0,
            serial_fraction: 0.06,
            parallel_exponent: 0.93,
            skew_sensitivity: 0.3,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }

    /// Aggregate a labeling into (label → component size) counts, sorted
    /// by size descending — the "number of vertices in each connected
    /// component" output of the paper's description.
    pub fn component_sizes(labels: &[u32]) -> Vec<(u32, usize)> {
        let mut counts = std::collections::HashMap::new();
        for &l in labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        let mut out: Vec<(u32, usize)> = counts.into_iter().collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

impl GasProgram for ConnectedComponents {
    type VertexData = u32;
    type Accum = u32;

    fn name(&self) -> &'static str {
        "connected_components"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, _graph: &GraphMeta<'_>, v: VertexId) -> u32 {
        v
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        data: &[u32],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<u32>, f64) {
        (Some(data[u as usize]), 1.0)
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        _v: VertexId,
        old: &u32,
        acc: Option<u32>,
        _superstep: usize,
    ) -> (u32, bool) {
        let new = acc.map_or(*old, |a| a.min(*old));
        (new, new < *old)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn max_supersteps(&self) -> usize {
        // Label propagation needs at most the graph diameter steps; cap
        // generously (paths are the worst realistic case in tests).
        100_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::connected_components_ref;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{Hybrid, MachineWeights, Partitioner};

    fn run(g: &Graph) -> Vec<u32> {
        let cluster = Cluster::case2();
        let a = Hybrid::new().partition(g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(g, &a, 1).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &ConnectedComponents::new(), 1);
        assert!(out.report.converged, "CC must converge");
        out.data
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            6,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(3, 4),
                Edge::new(4, 5),
            ],
        ));
        let labels = run(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn direction_is_ignored_for_weak_connectivity() {
        // Edges all pointing "backwards" still connect.
        let g = Graph::from_edge_list(EdgeList::from_edges(
            3,
            vec![Edge::new(2, 1), Edge::new(1, 0)],
        ));
        assert_eq!(run(&g), vec![0, 0, 0]);
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let mut edges = Vec::new();
        let n = 300u32;
        for v in 0..n {
            if v % 7 != 0 {
                edges.push(Edge::new(v, (v + 3) % n));
            }
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        assert_eq!(run(&g), connected_components_ref(&g));
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = Graph::from_edge_list(EdgeList::from_edges(4, vec![Edge::new(0, 1)]));
        let labels = run(&g);
        assert_eq!(labels[2], 2);
        assert_eq!(labels[3], 3);
    }

    #[test]
    fn component_sizes_aggregation() {
        let sizes = ConnectedComponents::component_sizes(&[0, 0, 0, 3, 3, 7]);
        assert_eq!(sizes, vec![(0, 3), (3, 2), (7, 1)]);
    }

    #[test]
    fn long_path_converges() {
        let n = 500u32;
        let edges = (0..n - 1).map(|v| Edge::new(v, v + 1)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let labels = run(&g);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
