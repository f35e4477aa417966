//! Greedy graph coloring with priority-based conflict repair.
//!
//! PowerGraph's Coloring application colors a directed graph so no two
//! connected vertices share a color, and reports the number of colors
//! used. The synchronous emulation here is the classic priority scheme:
//! every vertex starts at color 0; each superstep a vertex re-colors
//! itself (to the smallest color unused by any neighbor) only if it
//! conflicts with a *higher-priority* (lower-id) neighbor. Higher-priority
//! vertices hold their color, so every conflict strictly resolves and the
//! process terminates with a proper coloring.
//!
//! Hardware character: the paper notes Coloring benefits least from
//! CCR-guided partitioning because of its "asynchronous execution manner";
//! its profile carries a moderate serial fraction to reflect the conflict
//! serialization that async engines suffer.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{Graph, GraphMeta, VertexId};
use hetgraph_engine::{Direction, GasProgram};

/// Greedy coloring vertex program.
#[derive(Debug, Clone, Default)]
pub struct Coloring {}

impl Coloring {
    /// Default construction.
    pub fn new() -> Self {
        Coloring {}
    }

    /// The ground-truth hardware profile (see crate docs).
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "coloring".into(),
            edge_flops: 50.0,
            edge_bytes: 32.0,
            vertex_flops: 40.0,
            vertex_bytes: 16.0,
            serial_fraction: 0.04,
            parallel_exponent: 0.93,
            skew_sensitivity: 0.3,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }

    /// Number of distinct colors in a final coloring — the application's
    /// reported output ("count the total number of colors in use").
    pub fn color_count(colors: &[u32]) -> usize {
        let mut set: Vec<u32> = colors.to_vec();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Verify a proper coloring: no edge (ignoring self loops) connects
    /// two vertices of the same color.
    pub fn is_proper(graph: &Graph, colors: &[u32]) -> bool {
        graph
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .all(|e| colors[e.src as usize] != colors[e.dst as usize])
    }
}

impl GasProgram for Coloring {
    type VertexData = u32;
    /// `(neighbor id, neighbor color)` pairs observed by gather.
    type Accum = Vec<(u32, u32)>;

    fn name(&self) -> &'static str {
        "coloring"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, _graph: &GraphMeta<'_>, _v: VertexId) -> u32 {
        0
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
    ) -> (Option<Vec<(u32, u32)>>, f64) {
        (Some(vec![(u, data[u as usize])]), 1.0)
    }

    fn sum(&self, mut a: Vec<(u32, u32)>, mut b: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        a.append(&mut b);
        a
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        v: VertexId,
        old: &u32,
        acc: Option<Vec<(u32, u32)>>,
        _superstep: usize,
    ) -> (u32, bool) {
        let neighbors = match acc {
            Some(ns) => ns,
            None => return (*old, false),
        };
        // Repair only if a higher-priority (lower id) neighbor holds our
        // color; self loops never conflict.
        let conflicted = neighbors.iter().any(|&(u, c)| u != v && c == *old && u < v);
        if !conflicted {
            return (*old, false);
        }
        // Smallest color unused by ANY neighbor.
        let mut used: Vec<u32> = neighbors
            .iter()
            .filter(|&&(u, _)| u != v)
            .map(|&(_, c)| c)
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut candidate = 0u32;
        for c in used {
            if c == candidate {
                candidate += 1;
            } else if c > candidate {
                break;
            }
        }
        (candidate, candidate != *old)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Both
    }

    fn max_supersteps(&self) -> usize {
        10_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{Edge, EdgeList};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{MachineWeights, Oblivious, Partitioner};

    fn run(g: &Graph) -> Vec<u32> {
        let cluster = Cluster::case2();
        let a = Oblivious::new().partition(g, &MachineWeights::uniform(2));
        let dist = DistributedGraph::new(g, &a).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &Coloring::new(), 1);
        assert!(out.report.converged, "coloring must converge");
        out.data
    }

    #[test]
    fn path_uses_two_colors() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)],
        ));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        assert_eq!(Coloring::color_count(&colors), 2);
    }

    #[test]
    fn triangle_needs_three_colors() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            3,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)],
        ));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        assert_eq!(Coloring::color_count(&colors), 3);
    }

    #[test]
    fn star_uses_two_colors() {
        let n = 30u32;
        let edges = (1..n).map(|v| Edge::new(0, v)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        assert_eq!(Coloring::color_count(&colors), 2);
    }

    #[test]
    fn random_graph_proper() {
        let n = 400u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Edge::new(v, (v * 17 + 5) % n));
            edges.push(Edge::new(v, (v * 29 + 11) % n));
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
        // Greedy with priority stays close to degeneracy-order quality.
        assert!(Coloring::color_count(&colors) <= 10);
    }

    #[test]
    fn self_loops_do_not_deadlock() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            2,
            vec![Edge::new(0, 0), Edge::new(0, 1)],
        ));
        let colors = run(&g);
        assert!(Coloring::is_proper(&g, &colors));
    }

    #[test]
    fn color_count_counts_distinct() {
        assert_eq!(Coloring::color_count(&[0, 1, 0, 2]), 3);
        assert_eq!(Coloring::color_count(&[]), 0);
    }
}
