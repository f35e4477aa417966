//! PageRank (paper Eq. 8).
//!
//! `PR(u) = (1 − d)/N + d · Σ_{v ∈ B_u} PR(v) / L(v)` with damping
//! `d = 0.85`. Gather runs over in-edges (pull), apply mixes in the
//! damping term, scatter re-activates out-neighbors while the rank still
//! moves more than the tolerance.
//!
//! Hardware character (Fig 2): PageRank is the memory-bound application —
//! per-edge compute is trivial (one multiply-add) but every gather touches
//! a random remote cache line. Its profile therefore carries the highest
//! `edge_bytes`, making it the first to saturate on machines with many
//! threads but finite bandwidth.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{GraphMeta, VertexId};
use hetgraph_engine::{Direction, GasProgram};

/// Damping factor used by the paper (standard 0.85).
pub const DAMPING: f64 = 0.85;

/// PageRank vertex program.
#[derive(Debug, Clone)]
pub struct PageRank {
    iterations: usize,
    tolerance: f64,
}

impl PageRank {
    /// Run exactly `iterations` supersteps (tolerance 0 keeps every vertex
    /// active while ranks move at all — the paper-style fixed-iteration
    /// configuration).
    pub fn new(iterations: usize) -> Self {
        assert!(iterations > 0, "PageRank needs at least one iteration");
        PageRank {
            iterations,
            tolerance: 0.0,
        }
    }

    /// Converge to `tolerance` (L∞ on rank deltas), up to `max_iterations`.
    pub fn with_tolerance(max_iterations: usize, tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        assert!(max_iterations > 0, "PageRank needs at least one iteration");
        PageRank {
            iterations: max_iterations,
            tolerance,
        }
    }

    /// The ground-truth hardware profile (see crate docs).
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "pagerank".into(),
            edge_flops: 60.0,
            edge_bytes: 100.0,
            vertex_flops: 30.0,
            vertex_bytes: 16.0,
            serial_fraction: 0.02,
            parallel_exponent: 0.93,
            skew_sensitivity: 0.3,
            relief_floor: 0.85,
            relief_ref_degree: 10.0,
        }
    }
}

impl GasProgram for PageRank {
    type VertexData = f64;
    type Accum = f64;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, graph: &GraphMeta<'_>, _v: VertexId) -> f64 {
        1.0 / graph.num_vertices().max(1) as f64
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn gather(
        &self,
        graph: &GraphMeta<'_>,
        data: &[f64],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<f64>, f64) {
        // u is an in-neighbor, so it has at least the edge (u, v): its
        // out-degree is never zero here. (Under `gather_by_source` the
        // kernel also evaluates sources with out-degree 0; the resulting
        // `inf` entries are never read — see the trait contract.)
        (Some(data[u as usize] / graph.out_degree(u) as f64), 1.0)
    }

    /// The contribution `data[u] / out_degree(u)` depends only on `u`, so
    /// the kernel may evaluate it once per source per superstep instead of
    /// paying the division on every edge.
    fn gather_by_source(&self) -> bool {
        true
    }

    fn source_gather(&self, graph: &GraphMeta<'_>, data: &[f64], u: VertexId) -> f64 {
        data[u as usize] / graph.out_degree(u) as f64
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(
        &self,
        graph: &GraphMeta<'_>,
        _v: VertexId,
        old: &f64,
        acc: Option<f64>,
        _superstep: usize,
    ) -> (f64, bool) {
        let n = graph.num_vertices().max(1) as f64;
        let new = (1.0 - DAMPING) / n + DAMPING * acc.unwrap_or(0.0);
        ((new), (new - old).abs() > self.tolerance)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn max_supersteps(&self) -> usize {
        self.iterations
    }
}

/// PageRank with `f32` vertex data and accumulators — the engine's
/// opt-in reduced-precision mode.
///
/// Halving the rank array halves the kernel's dominant random-access
/// traffic (the `data[u]` pull in gather), which is worth real throughput
/// on memory-bound graphs. The price is ~7 decimal digits of rank
/// precision, so this program is **off by default**: it is not in
/// [`crate::AppRegistry::standard`] or [`crate::AppRegistry::full`] (its
/// reports would not be comparable with the pinned f64 snapshots), and is
/// reached only by explicit opt-in — `--app pagerank_f32` on the CLI, or
/// [`crate::AnyApp::pagerank_f32`] in code.
#[derive(Debug, Clone)]
pub struct PageRank32 {
    iterations: usize,
    tolerance: f32,
}

impl PageRank32 {
    /// Run exactly `iterations` supersteps (see [`PageRank::new`]).
    pub fn new(iterations: usize) -> Self {
        assert!(iterations > 0, "PageRank needs at least one iteration");
        PageRank32 {
            iterations,
            tolerance: 0.0,
        }
    }

    /// The f32 profile: identical calibrated constants under the name
    /// `pagerank_f32`, so its simulated times are directly comparable
    /// with the f64 program's.
    pub fn standard_profile() -> AppProfile {
        AppProfile {
            name: "pagerank_f32".into(),
            ..PageRank::standard_profile()
        }
    }
}

impl GasProgram for PageRank32 {
    type VertexData = f32;
    type Accum = f32;

    fn name(&self) -> &'static str {
        "pagerank_f32"
    }

    fn profile(&self) -> AppProfile {
        Self::standard_profile()
    }

    fn init(&self, graph: &GraphMeta<'_>, _v: VertexId) -> f32 {
        1.0 / graph.num_vertices().max(1) as f32
    }

    fn gather_direction(&self) -> Direction {
        Direction::In
    }

    fn gather(
        &self,
        graph: &GraphMeta<'_>,
        data: &[f32],
        _v: VertexId,
        u: VertexId,
    ) -> (Option<f32>, f64) {
        (Some(data[u as usize] / graph.out_degree(u) as f32), 1.0)
    }

    /// Source-only, like [`PageRank::gather_by_source`].
    fn gather_by_source(&self) -> bool {
        true
    }

    fn source_gather(&self, graph: &GraphMeta<'_>, data: &[f32], u: VertexId) -> f32 {
        data[u as usize] / graph.out_degree(u) as f32
    }

    fn sum(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(
        &self,
        graph: &GraphMeta<'_>,
        _v: VertexId,
        old: &f32,
        acc: Option<f32>,
        _superstep: usize,
    ) -> (f32, bool) {
        let n = graph.num_vertices().max(1) as f32;
        let new = (1.0 - DAMPING as f32) / n + DAMPING as f32 * acc.unwrap_or(0.0);
        (new, (new - old).abs() > self.tolerance)
    }

    fn scatter_direction(&self) -> Direction {
        Direction::Out
    }

    fn max_supersteps(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::pagerank_ref;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};
    use hetgraph_engine::{DistributedGraph, SimEngine};
    use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};

    fn run(g: &Graph, iters: usize) -> Vec<f64> {
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(g, &a, 1).expect("assignment must cover the graph");
        SimEngine::new(&cluster)
            .run(&dist, &PageRank::new(iters), 1)
            .data
    }

    #[test]
    fn ring_is_uniform() {
        // Every vertex of a directed ring has identical rank 1/N.
        let n = 10u32;
        let edges = (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let ranks = run(&g, 30);
        for r in &ranks {
            assert!((r - 0.1).abs() < 1e-9, "rank {r}");
        }
    }

    #[test]
    fn matches_sequential_reference() {
        let mut edges = Vec::new();
        let n = 50u32;
        for v in 0..n {
            edges.push(Edge::new(v, (v * 7 + 1) % n));
            edges.push(Edge::new(v, (v * 3 + 2) % n));
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let got = run(&g, 25);
        let want = pagerank_ref(&g, 25, DAMPING);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn hub_collects_rank() {
        // star: all leaves point at vertex 0 -> hub rank dominates.
        let n = 20u32;
        let edges = (1..n).map(|v| Edge::new(v, 0)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let ranks = run(&g, 20);
        assert!(ranks[0] > ranks[1] * 5.0);
    }

    #[test]
    fn tolerance_converges_early() {
        let n = 10u32;
        let edges = (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let out = SimEngine::new(&cluster).run(&dist, &PageRank::with_tolerance(500, 1e-12), 1);
        assert!(out.report.converged);
        assert!(out.report.supersteps < 500);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        PageRank::new(0);
    }

    #[test]
    fn f32_tracks_f64_ranks_within_single_precision() {
        let mut edges = Vec::new();
        let n = 50u32;
        for v in 0..n {
            edges.push(Edge::new(v, (v * 7 + 1) % n));
            edges.push(Edge::new(v, (v * 3 + 2) % n));
        }
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let engine = SimEngine::new(&cluster);
        let f64_out = engine.run(&dist, &PageRank::new(25), 1);
        let f32_out = engine.run(&dist, &PageRank32::new(25), 1);
        for (a64, a32) in f64_out.data.iter().zip(&f32_out.data) {
            assert!(
                (a64 - *a32 as f64).abs() < 1e-5,
                "f32 rank {a32} drifted from f64 rank {a64}"
            );
        }
        // Single-precision deltas can round to exactly zero near the
        // stationary point, so the f32 run may retire vertices earlier —
        // but never later — than the f64 run.
        assert!(f32_out.report.supersteps <= f64_out.report.supersteps);
        assert_eq!(f32_out.report.app, "pagerank_f32");
    }
}
