//! Random Hash partitioning (Section II-B-1).
//!
//! The PowerGraph baseline: each edge is assigned by a random hash of the
//! edge. The heterogeneity-aware extension weighs machines so that "the
//! probability of generating indexes for each machine strictly follows the
//! CCR" (paper Fig 4): instead of a uniform `hash mod p`, the hash is
//! mapped through the weighted threshold table of
//! [`MachineWeights::pick`].

use hetgraph_core::rng::{hash64, hash_combine};
use hetgraph_core::{obs::Telemetry, Edge, EdgeSource};

use crate::assignment::{tally, PartitionAssignment};
use crate::chunk::chunked_map;
use crate::traits::{observed, Partitioner};
use crate::weights::{assert_bitmask_capacity, MachineWeights};

/// Random-hash edge partitioner.
#[derive(Debug, Clone, Default)]
pub struct RandomHash;

/// Fixed hash salt: partitioning must be a pure function of the graph for
/// reproducibility.
const SALT: u64 = 0x9a4e_9a4e_0001;

impl RandomHash {
    /// The partitioner (it has no parameters).
    pub fn new() -> Self {
        RandomHash
    }
}

impl Partitioner for RandomHash {
    fn name(&self) -> &'static str {
        "random"
    }

    fn partition(
        &self,
        source: &dyn EdgeSource,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment {
        observed(self, source, threads, telemetry, || {
            let p = weights.len();
            assert_bitmask_capacity(p);
            let pick = |e: Edge| weights.pick(hash64(hash_combine(e.key(), SALT))).0;
            if let Some(graph) = source.graph() {
                // Pure per-edge hash: fan out in fixed chunks (identical
                // output at any thread count).
                let edges = graph.edges();
                let assignment: Vec<u16> = chunked_map(edges.len(), threads, |i| pick(edges[i]));
                return PartitionAssignment::from_edge_machines(graph, p, assignment, threads);
            }
            // One pass over the source, tallying replicas as edges go by.
            let mut assignment: Vec<u16> = Vec::with_capacity(source.num_edges());
            let placed = source.edges().map(|e| {
                let m = pick(e);
                assignment.push(m);
                (e, m)
            });
            let (replica_mask, edges_per_machine) =
                tally(source.num_vertices() as usize, p, placed);
            PartitionAssignment::from_parts(p, assignment, replica_mask, edges_per_machine, threads)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::{obs::OFF, EdgeList, Graph};

    fn power_law_like_graph() -> Graph {
        // A hub + noise: deterministic, enough edges for statistics.
        let n = 2_000u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push(Edge::new(0, v)); // hub fan-out
            edges.push(Edge::new(v, (v * 7 + 1) % n));
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    #[test]
    fn uniform_weights_balance_edges() {
        let g = power_law_like_graph();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        let shares = a.edge_shares();
        for s in shares {
            assert!((s - 0.25).abs() < 0.03, "share {s} far from uniform");
        }
    }

    #[test]
    fn weighted_assignment_follows_ccr() {
        let g = power_law_like_graph();
        let w = MachineWeights::from_ccr(&[1.0, 3.0]);
        let a = RandomHash::new().partition(&g, &w, 1, &OFF);
        let shares = a.edge_shares();
        assert!((shares[0] - 0.25).abs() < 0.03, "share {}", shares[0]);
        assert!((shares[1] - 0.75).abs() < 0.03, "share {}", shares[1]);
    }

    #[test]
    fn deterministic() {
        let g = power_law_like_graph();
        let w = MachineWeights::uniform(3);
        let a = RandomHash::new().partition(&g, &w, 1, &OFF);
        let b = RandomHash::new().partition(&g, &w, 1, &OFF);
        assert_eq!(a, b);
    }

    #[test]
    fn every_edge_assigned_exactly_once() {
        let g = power_law_like_graph();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(5), 1, &OFF);
        assert_eq!(a.edge_machines().len(), g.num_edges());
        let total: usize = a.edges_per_machine().iter().sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn single_machine_trivial() {
        let g = power_law_like_graph();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(1), 1, &OFF);
        assert_eq!(a.edges_per_machine()[0], g.num_edges());
        assert_eq!(a.total_mirrors(), 0);
    }
}
