//! The prior-work capability estimator (LeBeane et al., SC'15 — ref. 5 in
//! the paper).
//!
//! Prior work "simply reads a machine's hardware configuration (number of
//! virtual cores)" and reserves two threads for communication: the
//! capability estimate of a machine with `h` hardware threads is `h − 2`.
//! The paper's worked example: machines with 4 and 8 hardware threads get
//! CCR 1 : 3 = (4−2) : (8−2).
//!
//! This estimator is application-blind — the source of its ~108 % error on
//! applications whose scaling saturates (Fig 2).

use hetgraph_cluster::Cluster;

use crate::ccr::CcrSet;

/// Thread-count-based capability estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorWorkEstimator {}

impl PriorWorkEstimator {
    /// Default construction.
    pub fn new() -> Self {
        PriorWorkEstimator {}
    }

    /// The estimated CCR-like ratio vector for a cluster: computing
    /// threads per machine, normalized so the weakest machine is 1.0.
    /// The same estimate is used for every application (that is the
    /// point of the baseline — it cannot distinguish them).
    pub fn estimate(&self, cluster: &Cluster) -> CcrSet {
        let threads = cluster.thread_count_weights();
        let min = threads.iter().copied().fold(f64::INFINITY, f64::min);
        let ratios = threads.iter().map(|&t| t / min).collect();
        CcrSet::from_ratios("prior_work_thread_count", ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::catalog;

    #[test]
    fn papers_worked_example() {
        // 4 and 8 hardware threads -> (4-2):(8-2) = 1:3.
        let cluster = Cluster::new(vec![catalog::xeon_s(), catalog::c4_2xlarge()]);
        let est = PriorWorkEstimator::new().estimate(&cluster);
        assert_eq!(est.ratios(), &[1.0, 3.0]);
    }

    #[test]
    fn case2_estimate_is_one_to_five() {
        // Xeon S (4 HW) vs Xeon L (12 HW): (4-2):(12-2) = 1:5 — the
        // overestimate that overloads the fast machine in the paper.
        let est = PriorWorkEstimator::new().estimate(&Cluster::case2());
        assert_eq!(est.ratios(), &[1.0, 5.0]);
    }

    #[test]
    fn case1_looks_homogeneous_to_prior_work() {
        let est = PriorWorkEstimator::new().estimate(&Cluster::case1());
        assert_eq!(est.ratios(), &[1.0, 1.0]);
    }

    #[test]
    fn case3_estimate_ignores_frequency() {
        // The tiny 1.8 GHz node has the same thread count as the Xeon S;
        // prior work cannot tell them apart.
        let est3 = PriorWorkEstimator::new().estimate(&Cluster::case3());
        let est2 = PriorWorkEstimator::new().estimate(&Cluster::case2());
        assert_eq!(est3.ratios(), est2.ratios());
    }
}
