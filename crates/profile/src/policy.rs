//! The three load-balancing policies the paper compares (Fig 9, Fig 10):
//! PowerGraph's uniform default, prior work's thread counts, and the
//! proxy-profiled CCRs.

use hetgraph_cluster::Cluster;
use hetgraph_partition::MachineWeights;

use crate::ccr::CcrPool;

/// Which capability estimate drives the partitioner's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// Uniform split — the default PowerGraph behaviour.
    Default,
    /// Thread-count weights — LeBeane et al. (prior work).
    PriorWork,
    /// Proxy-profiled CCR weights — this paper.
    CcrGuided,
}

impl Policy {
    /// All three, in presentation order.
    pub const ALL: [Policy; 3] = [Policy::Default, Policy::PriorWork, Policy::CcrGuided];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Default => "default",
            Policy::PriorWork => "prior_work",
            Policy::CcrGuided => "ccr_guided",
        }
    }

    /// The machine weights this policy would feed the partitioner for
    /// `app` on `cluster`.
    ///
    /// # Panics
    /// Panics if `CcrGuided` is requested for an application missing from
    /// the pool (profiling must precede partitioning, as in the paper's
    /// flow of Fig 7b).
    pub fn weights(self, cluster: &Cluster, pool: &CcrPool, app: &str) -> MachineWeights {
        match self {
            Policy::Default => MachineWeights::uniform(cluster.len()),
            Policy::PriorWork => MachineWeights::from_thread_counts(cluster),
            Policy::CcrGuided => {
                let ccr = pool
                    .ccr(app)
                    .unwrap_or_else(|| panic!("no CCR profiled for application {app:?}"));
                MachineWeights::from_ccr(ccr.ratios())
            }
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccr::CcrSet;

    #[test]
    fn default_is_uniform() {
        let c = Cluster::case2();
        let w = Policy::Default.weights(&c, &CcrPool::new(), "x");
        assert_eq!(w.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn prior_uses_thread_counts() {
        let c = Cluster::case2(); // 2 vs 10 computing threads
        let w = Policy::PriorWork.weights(&c, &CcrPool::new(), "x");
        assert!((w.as_slice()[1] / w.as_slice()[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ccr_uses_pool() {
        let c = Cluster::case2();
        let mut pool = CcrPool::new();
        pool.insert(CcrSet::from_ratios("pagerank", vec![1.0, 3.5]));
        let w = Policy::CcrGuided.weights(&c, &pool, "pagerank");
        assert!((w.as_slice()[1] / w.as_slice()[0] - 3.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no CCR profiled")]
    fn missing_ccr_panics() {
        Policy::CcrGuided.weights(&Cluster::case2(), &CcrPool::new(), "nope");
    }

    #[test]
    fn names_distinct() {
        // These strings are written into every fig9, fig10, headline and
        // ablation JSON row: pin them exactly, in presentation order.
        let names: Vec<_> = Policy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["default", "prior_work", "ccr_guided"]);
        assert_eq!(Policy::CcrGuided.to_string(), "ccr_guided");
    }
}
