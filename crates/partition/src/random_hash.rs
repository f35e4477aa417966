//! Random Hash partitioning (Section II-B-1).
//!
//! The PowerGraph baseline: each edge is assigned by a random hash of the
//! edge. The heterogeneity-aware extension weighs machines so that "the
//! probability of generating indexes for each machine strictly follows the
//! CCR" (paper Fig 4): instead of a uniform `hash mod p`, the hash is
//! mapped through the weighted threshold table of
//! [`MachineWeights::pick`].

use hetgraph_core::rng::{hash64, hash_combine};
use hetgraph_core::{obs::Telemetry, Edge, Graph};

use crate::assignment::{tally, PartitionAssignment};
use crate::chunk::chunked_map;
use crate::traits::{observed, Partitioner, StreamPartitioner};
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
        graph: &Graph,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment {
        observed(self, graph, threads, telemetry, || {
            assert_bitmask_capacity(weights.len());
            let edges = graph.edges();
            // Pure per-edge hash: fan out in fixed chunks (identical output
            // at any thread count).
            let assignment: Vec<u16> = chunked_map(edges.len(), threads, |i| {
                let h = hash64(hash_combine(edges[i].key(), SALT));
                weights.pick(h).0
            });
            PartitionAssignment::from_edge_machines(graph, weights.len(), assignment, threads)
        })
    }
}

impl StreamPartitioner for RandomHash {
    fn partition_stream(
        &self,
        num_vertices: u32,
        weights: &MachineWeights,
        edges: &mut dyn Iterator<Item = Edge>,
    ) -> PartitionAssignment {
        assert_bitmask_capacity(weights.len());
        let mut assignment: Vec<u16> = Vec::new();
        let placed = edges.map(|e| {
            let m = weights.pick(hash64(hash_combine(e.key(), SALT))).0;
            assignment.push(m);
            (e, m)
        });
        let (replica_mask, edges_per_machine) = tally(num_vertices as usize, weights.len(), placed);
        PartitionAssignment::from_parts(
            weights.len(),
            assignment,
            replica_mask,
            edges_per_machine,
            1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::{obs::OFF, Edge, EdgeList};

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
    fn stream_equals_graph_partition() {
        let g = power_law_like_graph();
        for weights in [
            MachineWeights::uniform(4),
            MachineWeights::from_ccr(&[1.0, 3.0]),
        ] {
            let from_graph = RandomHash::new().partition(&g, &weights, 1, &OFF);
            let from_stream = RandomHash::new().partition_stream(
                g.num_vertices(),
                &weights,
                &mut g.edges().iter().copied(),
            );
            assert_eq!(from_graph, from_stream);
        }
    }

    #[test]
    fn single_machine_trivial() {
        let g = power_law_like_graph();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(1), 1, &OFF);
        assert_eq!(a.edges_per_machine()[0], g.num_edges());
        assert_eq!(a.total_mirrors(), 0);
    }
}
