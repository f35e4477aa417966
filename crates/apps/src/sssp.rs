//! Single-source shortest paths (extension beyond the paper's four apps).
//!
//! Unit-weight SSSP by frontier relaxation: the source starts active;
//! every changed vertex scatters to its out-neighbors, which pull the
//! minimum `dist + 1` over in-neighbors. Unlike the always-active
//! applications, SSSP's active set is a moving frontier — a useful stress
//! case for the engine's activation bookkeeping and for ablations on
//! bursty per-superstep load.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{GraphMeta, VertexId};
use hetgraph_engine::{ActiveInit, Direction, GasProgram};

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// SSSP vertex program.
#[derive(Debug, Clone)]
pub struct Sssp {
    source: VertexId,
}

impl Sssp {
    /// Shortest paths from `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }

    /// The source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Ground-truth hardware profile: light per-edge compute, frontier
    /// bursts, and a bit of serial overhead from frontier management.
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "sssp".into(),
            edge_flops: 40.0,
            edge_bytes: 36.0,
            vertex_flops: 15.0,
            vertex_bytes: 8.0,
            serial_fraction: 0.05,
            parallel_exponent: 1.0,
            skew_sensitivity: 0.3,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }
}

impl GasProgram for Sssp {
    type VertexData = u32;
    type Accum = u32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, _graph: &GraphMeta<'_>, v: VertexId) -> u32 {
        if v == self.source {
            0
        } else {
            UNREACHABLE
        }
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        data: &[u32],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<u32>, f64) {
        let d = data[u as usize];
        if d == UNREACHABLE {
            (None, 1.0)
        } else {
            (Some(d + 1), 1.0)
        }
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        v: VertexId,
        old: &u32,
        acc: Option<u32>,
        superstep: usize,
    ) -> (u32, bool) {
        let new = acc.map_or(*old, |a| a.min(*old));
        // The source must fire its first scatter even though its distance
        // does not change in superstep 0.
        let kick_off = superstep == 0 && v == self.source;
        (new, new < *old || kick_off)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn initial_active(&self, _graph: &GraphMeta<'_>) -> ActiveInit {
        ActiveInit::Seeds(vec![self.source])
    }

    fn max_supersteps(&self) -> usize {
        1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sssp_ref;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};

    fn run(g: &Graph, source: VertexId) -> Vec<u32> {
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(g, &a, 1).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &Sssp::new(source), 1);
        assert!(out.report.converged);
        out.data
    }

    #[test]
    fn path_distances() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        ));
        assert_eq!(run(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_stays_max() {
        let g = Graph::from_edge_list(EdgeList::from_edges(3, vec![Edge::new(0, 1)]));
        let d = run(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn respects_direction() {
        let g = Graph::from_edge_list(EdgeList::from_edges(2, vec![Edge::new(1, 0)]));
        // No path 0 -> 1 along directed edges.
        assert_eq!(run(&g, 0)[1], UNREACHABLE);
    }

    #[test]
    fn shorter_path_wins() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 3),
                Edge::new(0, 3), // direct shortcut
                Edge::new(0, 2),
                Edge::new(2, 3),
            ],
        ));
        assert_eq!(run(&g, 0)[3], 1);
    }

    #[test]
    fn matches_reference_bfs() {
        let n = 300u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Edge::new(v, (v * 11 + 2) % n));
            edges.push(Edge::new(v, (v * 5 + 9) % n));
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        assert_eq!(run(&g, 7), sssp_ref(&g, 7));
    }
}
