//! Feedback-driven (dynamic) load balancing — the Mizan-style comparison
//! point the paper discusses in related work.
//!
//! Dynamic systems (Mizan, GPS) fix bad initial partitions by migrating
//! load between epochs based on *observed* runtime imbalance. This module
//! models that loop at epoch granularity: run the job, observe per-machine
//! busy times, multiplicatively reweight toward balance, re-ingest, and
//! repeat.
//!
//! The interesting question — and the reason the paper argues for good
//! *static* estimates — is how many expensive re-ingest epochs each
//! starting point needs. Starting from proxy-profiled CCR weights the loop
//! is essentially converged at epoch 0; starting from uniform or
//! thread-count weights it pays several epochs of migration to reach the
//! same balance (see `exp_ablation --study feedback`).

use hetgraph_apps::AnyApp;
use hetgraph_cluster::Cluster;
use hetgraph_core::{obs::OFF, Graph};
use hetgraph_engine::{DistributedGraph, SimEngine};
use hetgraph_partition::{MachineWeights, Partitioner};

/// One epoch's observation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Epoch {
    /// Epoch index (0 = initial weights).
    pub epoch: usize,
    /// Weights used this epoch (normalized).
    pub weights: Vec<f64>,
    /// Simulated makespan.
    pub makespan_s: f64,
    /// Compute imbalance: slowest machine busy time / mean busy time.
    pub imbalance: f64,
}

/// Multiplicative-weights feedback balancer.
#[derive(Debug, Clone)]
pub struct FeedbackBalancer {
    /// Learning rate η ∈ (0, 1]: 1 jumps straight to the implied balance,
    /// smaller values damp oscillation (migration in real systems is
    /// rate-limited the same way).
    pub eta: f64,
    /// Epochs to run (including epoch 0 with the initial weights).
    pub epochs: usize,
}

impl Default for FeedbackBalancer {
    fn default() -> Self {
        FeedbackBalancer {
            eta: 0.7,
            epochs: 5,
        }
    }
}

impl FeedbackBalancer {
    /// Create a balancer.
    ///
    /// # Panics
    /// Panics on an out-of-range learning rate or zero epochs.
    pub fn new(eta: f64, epochs: usize) -> Self {
        assert!(eta > 0.0 && eta <= 1.0, "eta must be in (0, 1]");
        assert!(epochs >= 1, "need at least one epoch");
        FeedbackBalancer { eta, epochs }
    }

    /// Run the feedback loop: partition with the current weights, execute,
    /// observe per-machine busy time, reweight as
    /// `w_i ← w_i · (busy_i / mean_busy)^(-η)`, and repeat.
    ///
    /// A machine whose busy time exceeded the mean was overloaded relative
    /// to its real capability, so its weight shrinks and it receives less
    /// data next epoch; an early-finishing machine's weight grows.
    pub fn run(
        &self,
        cluster: &Cluster,
        graph: &Graph,
        app: &AnyApp,
        partitioner: &dyn Partitioner,
        initial: MachineWeights,
    ) -> Vec<Epoch> {
        let engine = SimEngine::new(cluster);
        let mut weights = initial;
        let mut history = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            let assignment = partitioner.partition(graph, &weights, 1, &OFF);
            let dist = DistributedGraph::new(graph, &assignment, 1)
                .expect("assignment must cover the graph");
            let report = app.run(&engine, &dist, 1);
            let busy = &report.per_machine_busy_s;
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            history.push(Epoch {
                epoch,
                weights: weights.as_slice().to_vec(),
                makespan_s: report.makespan_s,
                imbalance: report.compute_imbalance(),
            });
            if epoch + 1 == self.epochs {
                break;
            }
            // Reweight toward balance. Guard against zero busy times
            // (machines that received no work this epoch keep their
            // weight scaled up by the maximum correction).
            let next: Vec<f64> = weights
                .as_slice()
                .iter()
                .zip(busy)
                .map(|(&w, &b)| {
                    let ratio = if mean > 0.0 && b > 0.0 { b / mean } else { 0.5 };
                    w * ratio.powf(-self.eta)
                })
                .collect();
            weights = MachineWeights::new(&next);
        }
        history
    }

    /// Epochs until the imbalance first drops below `threshold`
    /// (`None` if it never does within the budget).
    pub fn epochs_to_balance(history: &[Epoch], threshold: f64) -> Option<usize> {
        history
            .iter()
            .find(|e| e.imbalance <= threshold)
            .map(|e| e.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccr::CcrPool;
    use hetgraph_gen::{NaturalGraph, ProxySet};
    use hetgraph_partition::RandomHash;

    fn setup() -> (Cluster, Graph) {
        (Cluster::case2(), NaturalGraph::Citation.generate(1024))
    }

    #[test]
    fn feedback_reduces_imbalance_from_uniform() {
        let (cluster, graph) = setup();
        let balancer = FeedbackBalancer::default();
        let history = balancer.run(
            &cluster,
            &graph,
            &AnyApp::pagerank(),
            &RandomHash::new(),
            MachineWeights::uniform(2),
        );
        assert_eq!(history.len(), 5);
        let first = history.first().unwrap();
        let last = history.last().unwrap();
        assert!(
            last.imbalance < first.imbalance,
            "imbalance should fall: {} -> {}",
            first.imbalance,
            last.imbalance
        );
        assert!(last.makespan_s < first.makespan_s, "makespan should fall");
    }

    #[test]
    fn ccr_start_is_already_balanced() {
        // The paper's argument: a good static estimate makes dynamic
        // migration unnecessary.
        let (cluster, graph) = setup();
        let pool = CcrPool::profile(
            &cluster,
            &ProxySet::standard(3200),
            &[AnyApp::pagerank()],
            1,
            &OFF,
        );
        let ccr_weights =
            MachineWeights::from_ccr(pool.ccr("pagerank").expect("profiled").ratios());
        let balancer = FeedbackBalancer::default();
        let from_ccr = balancer.run(
            &cluster,
            &graph,
            &AnyApp::pagerank(),
            &RandomHash::new(),
            ccr_weights,
        );
        let from_uniform = balancer.run(
            &cluster,
            &graph,
            &AnyApp::pagerank(),
            &RandomHash::new(),
            MachineWeights::uniform(2),
        );
        let thr = 1.25;
        let e_ccr = FeedbackBalancer::epochs_to_balance(&from_ccr, thr);
        let e_uni = FeedbackBalancer::epochs_to_balance(&from_uniform, thr);
        assert_eq!(e_ccr, Some(0), "CCR start should be balanced immediately");
        assert!(
            e_uni.is_none_or(|e| e > 0),
            "uniform start should need at least one migration epoch"
        );
    }

    #[test]
    fn weights_history_is_recorded_and_normalized() {
        let (cluster, graph) = setup();
        let history = FeedbackBalancer::new(1.0, 3).run(
            &cluster,
            &graph,
            &AnyApp::connected_components(),
            &RandomHash::new(),
            MachineWeights::uniform(2),
        );
        for e in &history {
            let sum: f64 = e.weights.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "epoch {}: weights not normalized",
                e.epoch
            );
        }
        // Weights must have moved toward the fast machine.
        assert!(history.last().unwrap().weights[1] > 0.6);
    }

    #[test]
    #[should_panic(expected = "eta must be in")]
    fn bad_eta_rejected() {
        FeedbackBalancer::new(1.5, 3);
    }
}
