//! k-core decomposition membership (extension beyond the paper's four).
//!
//! Iterative peeling: a vertex leaves the k-core when fewer than `k` of
//! its (in + out) neighbors remain alive; removals cascade until a fixed
//! point. The surviving vertices are exactly the k-core. The active set
//! shrinks monotonically, exercising the engine's convergence path from
//! the opposite direction of SSSP's growing frontier.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{GraphMeta, VertexId};
use hetgraph_engine::{Direction, GasProgram};

/// k-core membership program.
#[derive(Debug, Clone)]
pub struct KCore {
    k: u32,
}

impl KCore {
    /// Membership in the `k`-core.
    ///
    /// # Panics
    /// Panics if `k == 0` (everything is trivially in the 0-core).
    pub fn new(k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        KCore { k }
    }

    /// The configured k.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Ground-truth hardware profile: like CC but with even lighter
    /// per-edge arithmetic.
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "kcore".into(),
            edge_flops: 30.0,
            edge_bytes: 40.0,
            vertex_flops: 15.0,
            vertex_bytes: 8.0,
            serial_fraction: 0.05,
            parallel_exponent: 1.0,
            skew_sensitivity: 0.3,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }

    /// Vertices remaining in the core for a final labeling.
    pub fn members(data: &[bool]) -> Vec<VertexId> {
        data.iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

impl GasProgram for KCore {
    type VertexData = bool;
    type Accum = u32;

    fn name(&self) -> &'static str {
        "kcore"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, _graph: &GraphMeta<'_>, _v: VertexId) -> bool {
        true
    }

    fn gather_direction(&self) -> Direction {
        Direction::Both
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        data: &[bool],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<u32>, f64) {
        (Some(data[u as usize] as u32), 1.0)
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        _v: VertexId,
        old: &bool,
        acc: Option<u32>,
        _superstep: usize,
    ) -> (bool, bool) {
        if !old {
            return (false, false);
        }
        let alive_neighbors = acc.unwrap_or(0);
        if alive_neighbors < self.k {
            (false, true)
        } else {
            (true, false)
        }
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn max_supersteps(&self) -> usize {
        1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::kcore_ref;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{Hybrid, MachineWeights, Partitioner};

    fn run(g: &Graph, k: u32) -> Vec<bool> {
        let cluster = Cluster::case2();
        let a = Hybrid::new().partition(g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(g, &a, 1).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &KCore::new(k), 1);
        assert!(out.report.converged);
        out.data
    }

    fn clique_plus_tail() -> Graph {
        // K4 on {0..3} plus a path 3-4-5 hanging off.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u < v {
                    edges.push(Edge::new(u, v));
                }
            }
        }
        edges.push(Edge::new(3, 4));
        edges.push(Edge::new(4, 5));
        Graph::from_edge_list(EdgeList::from_edges(6, edges))
    }

    #[test]
    fn three_core_is_the_clique() {
        let alive = run(&clique_plus_tail(), 3);
        assert_eq!(alive, vec![true, true, true, true, false, false]);
        assert_eq!(KCore::members(&alive), vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_core_keeps_everything_with_edges() {
        let alive = run(&clique_plus_tail(), 1);
        assert!(alive.iter().all(|&a| a));
    }

    #[test]
    fn huge_k_empties_the_graph() {
        let alive = run(&clique_plus_tail(), 10);
        assert!(alive.iter().all(|&a| !a));
    }

    #[test]
    fn peeling_cascades() {
        // A path: 2-core is empty, but only after the cascade peels from
        // both ends inward.
        let n = 50u32;
        let edges = (0..n - 1).map(|v| Edge::new(v, v + 1)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let alive = run(&g, 2);
        assert!(alive.iter().all(|&a| !a));
    }

    #[test]
    fn matches_reference() {
        let n = 200u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Edge::new(v, (v * 3 + 1) % n));
            if v % 2 == 0 {
                edges.push(Edge::new(v, (v * 7 + 5) % n));
            }
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        for k in [1, 2, 3] {
            assert_eq!(run(&g, k), kcore_ref(&g, k), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        KCore::new(0);
    }
}
