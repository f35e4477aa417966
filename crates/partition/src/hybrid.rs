//! Hybrid (mixed-cut) partitioning (Section II-C; PowerLyra).
//!
//! Two phases:
//!
//! 1. **Edge cut for everyone**: every edge is assigned by a (weighted)
//!    hash of its *target* vertex, so all in-edges of a vertex colocate
//!    with it and low-degree vertices get zero in-edge mirrors.
//! 2. **Vertex cut for hubs**: after the first pass the in-degree of every
//!    vertex is known; vertices whose in-degree exceeds a threshold have
//!    their in-edges re-assigned by (weighted) hash of the *source*
//!    vertex, bounding a hub's replicas by the number of machines instead
//!    of by its degree.
//!
//! The heterogeneity-aware weighting is "exactly the same as in the Random
//! Hash method" (paper): both hash picks go through the CCR-weighted
//! threshold table.

use hetgraph_core::rng::{hash64, hash_combine};
use hetgraph_core::{obs::Telemetry, EdgeSource};

use crate::assignment::PartitionAssignment;
use crate::chunk::chunked_map;
use crate::traits::{in_memory, observed, Partitioner};
use crate::weights::{assert_bitmask_capacity, MachineWeights};

/// Default high-degree threshold (PowerLyra's default).
pub const DEFAULT_THRESHOLD: usize = 100;

/// Salt for the target-vertex hash (phase 1).
pub(crate) const TARGET_SALT: u64 = 0x6879_6272_6964_0001;
/// Salt for the source-vertex hash (phase 2).
pub(crate) const SOURCE_SALT: u64 = 0x6879_6272_6964_0002;

/// Mixed-cut Hybrid partitioner.
#[derive(Debug, Clone)]
pub struct Hybrid {
    threshold: usize,
}

impl Hybrid {
    /// Default construction (threshold 100).
    pub fn new() -> Self {
        Hybrid {
            threshold: DEFAULT_THRESHOLD,
        }
    }

    /// Custom high-degree threshold.
    pub fn with_threshold(threshold: usize) -> Self {
        Hybrid { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }
}

impl Default for Hybrid {
    fn default() -> Self {
        Self::new()
    }
}

/// Weighted hash of a vertex id with a salt.
pub(crate) fn vertex_pick(weights: &MachineWeights, v: u32, salt: u64) -> u16 {
    weights.pick(hash64(hash_combine(v as u64, salt))).0
}

/// Per-vertex pick table for `salt`, computed once so the per-edge loop is
/// two array lookups instead of two hash-plus-threshold scans. Pure per
/// vertex, so the chunked fan-out is byte-identical at any thread count.
pub(crate) fn pick_table(
    weights: &MachineWeights,
    n: usize,
    salt: u64,
    host_threads: usize,
) -> Vec<u16> {
    chunked_map(n, host_threads, |v| vertex_pick(weights, v as u32, salt))
}

impl Partitioner for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    /// Reads a shard source into memory first (not bounded-memory).
    fn partition(
        &self,
        source: &dyn EdgeSource,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment {
        let graph = &*in_memory(source);
        observed(self, graph, threads, telemetry, || {
            assert_bitmask_capacity(weights.len());
            let n = graph.num_vertices() as usize;
            let src_pick = pick_table(weights, n, SOURCE_SALT, threads);
            let dst_pick = pick_table(weights, n, TARGET_SALT, threads);
            let edges = graph.edges();
            let assignment: Vec<u16> = chunked_map(edges.len(), threads, |i| {
                let e = &edges[i];
                // Phase 1 + 2 fused: the in-degree is available from the
                // already-built in-CSR, which is exactly the information
                // the streaming system has after its first pass.
                if graph.in_degree(e.dst) > self.threshold {
                    src_pick[e.src as usize]
                } else {
                    dst_pick[e.dst as usize]
                }
            });
            PartitionAssignment::from_edge_machines(graph, weights.len(), assignment, threads)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_hash::RandomHash;
    use hetgraph_core::{obs::OFF, Edge, EdgeList, Graph};

    /// Many low-degree vertices (each with a handful of in-edges) plus one
    /// mega-hub — the regime where mixed cuts beat pure vertex cuts.
    fn hub_graph() -> Graph {
        let n = 4_000u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push(Edge::new(v, 0)); // everyone points at hub 0
            for k in 0..4u32 {
                // four in-edges per low-degree vertex
                edges.push(Edge::new((v * 17 + 3 + k * 37) % n, v));
            }
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    #[test]
    fn low_degree_vertices_have_no_in_edge_split() {
        let g = hub_graph();
        let a = Hybrid::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        // Every low-degree vertex's in-edges are on one machine: the
        // machine hashed from the target. So for each edge to a low-degree
        // target, the assignment equals the target's hash-pick.
        let w = MachineWeights::uniform(4);
        for (i, e) in g.edges().iter().enumerate() {
            if g.in_degree(e.dst) <= DEFAULT_THRESHOLD {
                assert_eq!(
                    a.edge_machines()[i],
                    vertex_pick(&w, e.dst, TARGET_SALT),
                    "low-degree in-edges must follow the target hash"
                );
            }
        }
    }

    #[test]
    fn hub_in_edges_spread_by_source() {
        let g = hub_graph();
        let a = Hybrid::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        // Hub 0 has ~4k in-edges; they must be spread across machines.
        let mut machines = std::collections::HashSet::new();
        for (i, e) in g.edges().iter().enumerate() {
            if e.dst == 0 {
                machines.insert(a.edge_machines()[i]);
            }
        }
        assert_eq!(machines.len(), 4, "hub edges should reach every machine");
    }

    #[test]
    fn lower_replication_than_random_on_low_degree_graph() {
        let g = hub_graph();
        let w = MachineWeights::uniform(8);
        let hybrid = Hybrid::new().partition(&g, &w, 1, &OFF);
        let random = RandomHash::new().partition(&g, &w, 1, &OFF);
        assert!(
            hybrid.replication_factor() < random.replication_factor(),
            "hybrid {} !< random {}",
            hybrid.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn weighted_assignment_tracks_ccr() {
        let g = hub_graph();
        let w = MachineWeights::from_ccr(&[1.0, 3.0]);
        let a = Hybrid::new().partition(&g, &w, 1, &OFF);
        let shares = a.edge_shares();
        assert!(
            (shares[1] - 0.75).abs() < 0.08,
            "fast machine share {} vs target 0.75",
            shares[1]
        );
    }

    #[test]
    fn threshold_zero_degenerates_to_source_hash() {
        let g = hub_graph();
        let w = MachineWeights::uniform(3);
        let a = Hybrid::with_threshold(0).partition(&g, &w, 1, &OFF);
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(a.edge_machines()[i], vertex_pick(&w, e.src, SOURCE_SALT));
        }
    }

    #[test]
    fn huge_threshold_degenerates_to_target_hash() {
        let g = hub_graph();
        let w = MachineWeights::uniform(3);
        let a = Hybrid::with_threshold(usize::MAX).partition(&g, &w, 1, &OFF);
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(a.edge_machines()[i], vertex_pick(&w, e.dst, TARGET_SALT));
        }
    }

    #[test]
    fn deterministic() {
        let g = hub_graph();
        let w = MachineWeights::uniform(4);
        assert_eq!(
            Hybrid::new().partition(&g, &w, 1, &OFF),
            Hybrid::new().partition(&g, &w, 1, &OFF)
        );
    }
}
