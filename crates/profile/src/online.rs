//! Online CCR maintenance.
//!
//! The paper: "The CCR pool needs to be updated whenever computing
//! resources in the heterogeneous cluster change. … Given its low
//! overhead, dynamic changes in resources can be captured by running the
//! profiler and updating the CCR pool online at regular intervals."
//!
//! This module implements that maintenance loop: re-profile, measure how
//! far each application's CCR moved, and replace the pool only when drift
//! exceeds a threshold (avoiding partition-cache invalidation for noise).

use hetgraph_apps::AnyApp;
use hetgraph_cluster::Cluster;
use hetgraph_core::{obs::OFF, stats};
use hetgraph_gen::ProxySet;

use crate::ccr::CcrPool;

/// Result of one maintenance pass.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RefreshOutcome {
    /// Per-application relative drift between the old and new CCR vectors
    /// (mean over machines).
    pub drift: Vec<(String, f64)>,
    /// Whether the pool was replaced.
    pub refreshed: bool,
}

/// Periodic CCR maintenance.
#[derive(Debug, Clone)]
pub struct CcrMaintainer {
    /// Replace the pool when any application's mean CCR drift exceeds
    /// this fraction.
    pub drift_threshold: f64,
}

impl Default for CcrMaintainer {
    fn default() -> Self {
        // 10%: below the paper's own estimation-error budget, so smaller
        // drifts are indistinguishable from profiling noise.
        CcrMaintainer {
            drift_threshold: 0.10,
        }
    }
}

impl CcrMaintainer {
    /// Create with an explicit threshold.
    ///
    /// # Panics
    /// Panics on a non-positive threshold.
    pub fn new(drift_threshold: f64) -> Self {
        assert!(drift_threshold > 0.0, "threshold must be positive");
        CcrMaintainer { drift_threshold }
    }

    /// Mean relative drift between two CCR vectors of equal length.
    fn vector_drift(old: &[f64], new: &[f64]) -> f64 {
        assert_eq!(
            old.len(),
            new.len(),
            "CCR vectors must cover the same machines"
        );
        let errs: Vec<f64> = old
            .iter()
            .zip(new)
            .map(|(&o, &n)| stats::relative_error(n, o))
            .collect();
        stats::mean(&errs)
    }

    /// Re-profile `cluster` and update `pool` in place if drift warrants.
    ///
    /// Applications present in the pool but not in `apps` are left
    /// untouched; new applications are always added.
    pub fn maintain(
        &self,
        pool: &mut CcrPool,
        cluster: &Cluster,
        proxies: &ProxySet,
        apps: &[AnyApp],
    ) -> RefreshOutcome {
        let fresh = CcrPool::profile(cluster, proxies, apps, 1, &OFF);
        let mut drift = Vec::new();
        let mut must_refresh = false;
        for set in fresh.iter() {
            match pool.ccr(set.app()) {
                Some(old) if old.len() == set.len() => {
                    let d = Self::vector_drift(old.ratios(), set.ratios());
                    if d > self.drift_threshold {
                        must_refresh = true;
                    }
                    drift.push((set.app().to_string(), d));
                }
                _ => {
                    // Unknown app or changed cluster size: always take the
                    // fresh measurement.
                    must_refresh = true;
                    drift.push((set.app().to_string(), f64::INFINITY));
                }
            }
        }
        if must_refresh {
            for set in fresh.iter() {
                pool.insert(set.clone());
            }
        }
        RefreshOutcome {
            drift,
            refreshed: must_refresh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_apps::standard_apps;
    use hetgraph_cluster::catalog;

    #[test]
    fn unchanged_cluster_does_not_refresh() {
        let cluster = Cluster::case2();
        let proxies = ProxySet::standard(6400);
        let mut pool = CcrPool::profile(&cluster, &proxies, &standard_apps(), 1, &OFF);
        let before = pool.clone();
        let outcome =
            CcrMaintainer::default().maintain(&mut pool, &cluster, &proxies, &standard_apps());
        assert!(!outcome.refreshed, "identical re-profile must not refresh");
        assert_eq!(pool, before);
        for (_, d) in &outcome.drift {
            assert!(*d < 1e-12, "identical profiling must show zero drift");
        }
    }

    #[test]
    fn hardware_change_triggers_refresh() {
        // Profile on case 2, then the tiny ARM node replaces the Xeon S
        // (case 3): CCRs nearly double and the maintainer must notice.
        let proxies = ProxySet::standard(6400);
        let mut pool = CcrPool::profile(&Cluster::case2(), &proxies, &standard_apps(), 1, &OFF);
        let old_spread = pool.ccr("pagerank").unwrap().spread();
        let outcome = CcrMaintainer::default().maintain(
            &mut pool,
            &Cluster::case3(),
            &proxies,
            &standard_apps(),
        );
        assert!(outcome.refreshed, "hardware swap must refresh the pool");
        let new_spread = pool.ccr("pagerank").unwrap().spread();
        assert!(new_spread > old_spread, "{new_spread} !> {old_spread}");
    }

    #[test]
    fn new_application_is_added() {
        let cluster = Cluster::case2();
        let proxies = ProxySet::standard(6400);
        let mut pool = CcrPool::profile(&cluster, &proxies, &[AnyApp::pagerank()], 1, &OFF);
        assert!(pool.ccr("coloring").is_none());
        let outcome = CcrMaintainer::default().maintain(
            &mut pool,
            &cluster,
            &proxies,
            &[AnyApp::pagerank(), AnyApp::coloring()],
        );
        assert!(outcome.refreshed);
        assert!(pool.ccr("coloring").is_some());
    }

    #[test]
    fn cluster_resize_is_treated_as_drift() {
        let proxies = ProxySet::standard(6400);
        let mut pool =
            CcrPool::profile(&Cluster::case2(), &proxies, &[AnyApp::pagerank()], 1, &OFF);
        let three = Cluster::new(vec![
            catalog::xeon_s(),
            catalog::xeon_l(),
            catalog::xeon_l(),
        ]);
        let outcome =
            CcrMaintainer::default().maintain(&mut pool, &three, &proxies, &[AnyApp::pagerank()]);
        assert!(outcome.refreshed);
        assert_eq!(pool.ccr("pagerank").unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn bad_threshold_rejected() {
        CcrMaintainer::new(0.0);
    }
}
