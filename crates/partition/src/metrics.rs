//! Partition quality metrics.

use crate::assignment::PartitionAssignment;
use crate::weights::MachineWeights;

/// Quality summary of one partition against a target weight vector.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartitionMetrics {
    /// PowerGraph's λ: average replicas per covered vertex.
    pub replication_factor: f64,
    /// Total mirror replicas across machines.
    pub total_mirrors: u64,
    /// Fraction of edges per machine.
    pub edge_shares: Vec<f64>,
    /// `max_i share_i / weight_i` — how overloaded the worst machine is
    /// relative to its capability share. 1.0 is a perfect weighted balance.
    pub max_normalized_load: f64,
    /// `max_i |share_i − weight_i| / weight_i` — worst relative deviation
    /// from the target distribution.
    pub weighted_balance_error: f64,
}

impl PartitionMetrics {
    /// Compute metrics for `assignment` against `weights`. The
    /// replica-mask reduction (the only O(vertices) pass here) fans out
    /// over `threads` in index-deterministic chunks with integer partial
    /// sums, so the metrics are identical at any thread count.
    ///
    /// # Panics
    /// Panics if machine counts mismatch or `threads == 0`.
    pub fn compute(
        assignment: &PartitionAssignment,
        weights: &MachineWeights,
        threads: usize,
    ) -> Self {
        assert_eq!(
            assignment.num_machines(),
            weights.len(),
            "assignment and weights must cover the same machines"
        );
        let (total_replicas, covered, _) = assignment.replication_summary(threads);
        let edges_per_machine = assignment.edges_per_machine();
        let total_edges: usize = edges_per_machine.iter().sum();
        let shares: Vec<f64> = if total_edges == 0 {
            vec![0.0; edges_per_machine.len()]
        } else {
            edges_per_machine
                .iter()
                .map(|&c| c as f64 / total_edges as f64)
                .collect()
        };
        let mut max_norm: f64 = 0.0;
        let mut max_err: f64 = 0.0;
        for (i, &s) in shares.iter().enumerate() {
            let w = weights.as_slice()[i];
            max_norm = max_norm.max(s / w);
            max_err = max_err.max((s - w).abs() / w);
        }
        let replication_factor = if covered == 0 {
            1.0
        } else {
            total_replicas as f64 / covered as f64
        };
        PartitionMetrics {
            replication_factor,
            total_mirrors: total_replicas - covered,
            edge_shares: shares,
            max_normalized_load: max_norm,
            weighted_balance_error: max_err,
        }
    }

    /// For `benchmark/src/layers.rs` only; deleted by the ruler's next API
    /// follow-up.
    #[doc(hidden)]
    pub fn compute_with_threads(
        assignment: &PartitionAssignment,
        weights: &MachineWeights,
        threads: usize,
    ) -> Self {
        Self::compute(assignment, weights, threads)
    }
}

impl std::fmt::Display for PartitionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rf={:.3} mirrors={} max_norm_load={:.3} balance_err={:.3}",
            self.replication_factor,
            self.total_mirrors,
            self.max_normalized_load,
            self.weighted_balance_error
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::{Edge, EdgeList, Graph};

    fn graph() -> Graph {
        Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 0),
            ],
        ))
    }

    #[test]
    fn perfect_uniform_split() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        let m = PartitionMetrics::compute(&a, &MachineWeights::uniform(2), 1);
        assert!((m.max_normalized_load - 1.0).abs() < 1e-12);
        assert!(m.weighted_balance_error < 1e-12);
    }

    #[test]
    fn skewed_split_detected() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 0, 1], 1);
        let m = PartitionMetrics::compute(&a, &MachineWeights::uniform(2), 1);
        // Machine 0 has 75% of edges at a 50% target -> normalized load 1.5.
        assert!((m.max_normalized_load - 1.5).abs() < 1e-12);
        assert!((m.weighted_balance_error - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_target_changes_interpretation() {
        let g = graph();
        // 75/25 split is PERFECT for a 3:1 weight vector.
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 0, 1], 1);
        let m = PartitionMetrics::compute(&a, &MachineWeights::new(&[3.0, 1.0]), 1);
        assert!(m.weighted_balance_error < 1e-9);
    }

    #[test]
    fn display_is_compact() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        let m = PartitionMetrics::compute(&a, &MachineWeights::uniform(2), 1);
        let s = m.to_string();
        assert!(s.contains("rf=") && s.contains("mirrors="));
    }

    #[test]
    #[should_panic(expected = "same machines")]
    fn mismatched_machines_panic() {
        let g = graph();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 1, 1], 1);
        PartitionMetrics::compute(&a, &MachineWeights::uniform(3), 1);
    }
}
