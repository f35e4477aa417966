//! Triangle counting.
//!
//! PowerGraph's implementation keeps each vertex's neighbor list in a hash
//! set and, for every edge `(u, v)`, counts the intersection of `u`'s and
//! `v`'s neighbor sets. We keep *sorted* neighbor arrays (built once in
//! [`TriangleCount::for_graph`]) and count by sorted-merge intersection —
//! same asymptotics, deterministic work accounting: the engine is charged
//! the real number of merge comparisons, so triangle-rich graphs (natural
//! stand-ins) genuinely cost more per edge than clean proxies. That is the
//! mechanism behind the paper's one CCR miss (Triangle Count on the
//! biggest machine).
//!
//! To count each undirected triangle exactly once, run on a DAG
//! orientation (see [`orient_by_degree`]): for every directed edge
//! `v → u`, triangles are closed by common *out*-neighbors of `v` and `u`.
//!
//! Hardware character: compute-bound (the merge does many comparisons per
//! byte touched), with sub-linear-exponent scaling that keeps improving on
//! the largest machines — Fig 2's "sharp speedup increase" application.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{Edge, EdgeList, Graph, GraphMeta, VertexId};
use hetgraph_engine::{CompactDistGraph, Direction, GasProgram};

/// Triangle-count vertex program, bound to one graph's sorted adjacency.
#[derive(Debug, Clone)]
pub struct TriangleCount {
    sorted_out: Vec<Box<[u32]>>,
}

impl TriangleCount {
    /// Build the sorted out-adjacency index for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        let sorted_out = (0..graph.num_vertices())
            .map(|v| {
                let mut ns: Vec<u32> = graph.out_neighbors(v).to_vec();
                ns.sort_unstable();
                ns.into_boxed_slice()
            })
            .collect();
        TriangleCount { sorted_out }
    }

    /// [`TriangleCount::for_graph`] for a compressed distributed view.
    /// Compact rows decode in sorted order, so this yields the same
    /// per-vertex index (and therefore bitwise-identical reports) as
    /// building from the plain graph.
    pub fn for_compact(dist: &CompactDistGraph) -> Self {
        let n = dist.meta().num_vertices();
        let mut scratch = Vec::new();
        let sorted_out = (0..n)
            .map(|v| {
                let (ns, _) = dist.out_adj_into(v, &mut scratch);
                ns.to_vec().into_boxed_slice()
            })
            .collect();
        TriangleCount { sorted_out }
    }

    /// The ground-truth hardware profile (see crate docs). Work units are
    /// merge *comparisons*, not edges, so per-unit constants are smaller
    /// than the other applications'.
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "triangle_count".into(),
            edge_flops: 80.0,
            edge_bytes: 10.0,
            vertex_flops: 10.0,
            vertex_bytes: 8.0,
            serial_fraction: 0.0,
            parallel_exponent: 0.7,
            skew_sensitivity: 0.15,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }

    /// Total triangles over the per-vertex counts.
    pub fn total(data: &[u64]) -> u64 {
        data.iter().sum()
    }

    /// Sorted-merge intersection size plus the number of comparisons
    /// performed (the work the hardware actually does).
    fn intersect(a: &[u32], b: &[u32]) -> (u64, f64) {
        let (mut i, mut j) = (0usize, 0usize);
        let mut count = 0u64;
        let mut steps = 0u64;
        while i < a.len() && j < b.len() {
            steps += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        (count, steps.max(1) as f64)
    }
}

impl GasProgram for TriangleCount {
    type VertexData = u64;
    type Accum = u64;

    fn name(&self) -> &'static str {
        "triangle_count"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, graph: &GraphMeta<'_>, _v: VertexId) -> u64 {
        assert_eq!(
            graph.num_vertices() as usize,
            self.sorted_out.len(),
            "TriangleCount must be constructed for the graph it runs on"
        );
        0
    }

    fn gather_direction(&self) -> Direction {
        Direction::Out
    }

    fn gather(
        &self,
        _graph: &GraphMeta<'_>,
        _data: &[u64],
        v: VertexId,
        u: VertexId,
    ) -> (Option<u64>, f64) {
        let (count, steps) =
            Self::intersect(&self.sorted_out[v as usize], &self.sorted_out[u as usize]);
        (Some(count), steps)
    }

    fn sum(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn apply(
        &self,
        _graph: &GraphMeta<'_>,
        _v: VertexId,
        _old: &u64,
        acc: Option<u64>,
        _superstep: usize,
    ) -> (u64, bool) {
        (acc.unwrap_or(0), false)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::None
    }

    fn max_supersteps(&self) -> usize {
        1
    }
}

/// Orient an arbitrary directed graph for exact triangle counting: take
/// the underlying undirected simple graph and direct every edge from the
/// endpoint with smaller (degree, id) to the larger. The result is a DAG
/// on which [`TriangleCount`] counts each undirected triangle exactly
/// once, and hub out-degrees stay bounded (the standard trick).
pub fn orient_by_degree(graph: &Graph) -> Graph {
    let und = graph.to_undirected();
    let rank = |v: VertexId| (und.degree(v), v);
    let mut edges = Vec::with_capacity(und.num_edges() / 2);
    for e in und.edges() {
        // `to_undirected` stores both arcs; keep the canonical one.
        if rank(e.src) < rank(e.dst) {
            edges.push(Edge::new(e.src, e.dst));
        }
    }
    Graph::from_edge_list(EdgeList::from_edges(graph.num_vertices(), edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::triangle_count_ref;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{Edge, EdgeList};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{Ginger, MachineWeights, Partitioner};

    fn count(g: &Graph) -> u64 {
        let oriented = orient_by_degree(g);
        let cluster = Cluster::case2();
        let a = Ginger::new().partition(&oriented, &MachineWeights::uniform(2));
        let tc = TriangleCount::for_graph(&oriented);
        let dist = DistributedGraph::new(&oriented, &a).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &tc, 1);
        TriangleCount::total(&out.data)
    }

    #[test]
    fn single_triangle() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            3,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)],
        ));
        assert_eq!(count(&g), 1);
    }

    #[test]
    fn square_has_no_triangles() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 0),
            ],
        ));
        assert_eq!(count(&g), 0);
    }

    #[test]
    fn complete_graph_count() {
        // K5 has C(5,3) = 10 triangles.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    edges.push(Edge::new(u, v));
                }
            }
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(5, edges));
        assert_eq!(count(&g), 10);
    }

    #[test]
    fn duplicate_and_reverse_edges_do_not_double_count() {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(1, 2),
                Edge::new(2, 0),
                Edge::new(0, 2),
            ],
        ));
        assert_eq!(count(&g), 1);
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let n = 200u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Edge::new(v, (v * 13 + 1) % n));
            edges.push(Edge::new(v, (v * 7 + 3) % n));
            edges.push(Edge::new(v, (v + 1) % n));
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        assert_eq!(count(&g), triangle_count_ref(&g));
    }

    #[test]
    fn work_scales_with_triangle_density() {
        // A clique produces far more merge comparisons per edge than a
        // cycle — the graph-dependent work that drives the paper's TC
        // estimation miss.
        let clique = {
            let mut edges = Vec::new();
            for u in 0..20u32 {
                for v in 0..20u32 {
                    if u != v {
                        edges.push(Edge::new(u, v));
                    }
                }
            }
            Graph::from_edge_list(EdgeList::from_edges(20, edges))
        };
        let cycle = {
            let edges = (0..380u32).map(|v| Edge::new(v, (v + 1) % 380)).collect();
            Graph::from_edge_list(EdgeList::from_edges(380, edges))
        };
        let work = |g: &Graph| {
            let o = orient_by_degree(g);
            let cluster = Cluster::case2();
            let a = Ginger::new().partition(&o, &MachineWeights::uniform(2));
            let tc = TriangleCount::for_graph(&o);
            let dist = DistributedGraph::new(&o, &a).expect("assignment must cover the graph");
            let rep = SimEngine::new(&cluster).run(&dist, &tc, 1).report;
            let total: f64 = rep.per_machine_work.iter().map(|w| w.edge_units).sum();
            total / o.num_edges().max(1) as f64
        };
        assert!(work(&clique) > 2.0 * work(&cycle));
    }

    #[test]
    fn intersect_counts_steps() {
        let (c, s) = TriangleCount::intersect(&[1, 2, 3], &[2, 3, 4]);
        assert_eq!(c, 2);
        assert!(s >= 2.0);
        let (c0, s0) = TriangleCount::intersect(&[], &[1, 2]);
        assert_eq!(c0, 0);
        assert_eq!(s0, 1.0, "empty intersections still cost one probe");
    }

    #[test]
    #[should_panic(expected = "constructed for the graph")]
    fn wrong_graph_rejected() {
        let g1 = Graph::from_edge_list(EdgeList::from_edges(3, vec![Edge::new(0, 1)]));
        let g2 = Graph::from_edge_list(EdgeList::from_edges(5, vec![Edge::new(0, 1)]));
        let tc = TriangleCount::for_graph(&g1);
        let cluster = Cluster::case2();
        let a = Ginger::new().partition(&g2, &MachineWeights::uniform(2));
        let dist = DistributedGraph::new(&g2, &a).expect("assignment must cover the graph");
        SimEngine::new(&cluster).run(&dist, &tc, 1);
    }
}
