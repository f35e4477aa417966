//! The end-to-end framework flow of the paper's Fig 7b.
//!
//! > "The framework first loads input graph files and the application.
//! > Then, based on the application, one corresponding CCR set would be
//! > picked from the pool, which is pre-generated by the offline profiling
//! > process. Based on the application specific CCR and user selected
//! > partitioning algorithm, the graph partitioner splits the graph into
//! > multiple chunks and distributes them onto nodes in the cluster
//! > accordingly. … The last step of the flow is the application
//! > execution."
//!
//! [`Framework`] packages exactly that: construct it once per cluster
//! (profiling happens here, offline), then [`Framework::submit`] jobs.
//! Deployment profiles every workload in the full app registry
//! ([`hetgraph_apps::full_apps`]), so all six applications submit without
//! re-profiling; [`Framework::with_threads`] sets the host thread budget
//! every submitted job runs under.

use hetgraph_apps::{full_apps, AnyApp};
use hetgraph_cluster::Cluster;
use hetgraph_core::{obs::OFF, Graph};
use hetgraph_engine::{DistributedGraph, SimEngine, SimReport};
use hetgraph_gen::ProxySet;
use hetgraph_partition::{MachineWeights, PartitionMetrics, PartitionerKind};
use hetgraph_profile::{CcrMaintainer, CcrPool, Policy};

/// Result of one job submission.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The execution report.
    pub report: SimReport,
    /// Quality of the partition the job ran on.
    pub partition: PartitionMetrics,
}

/// A profiled heterogeneous graph-processing deployment (Fig 7b).
pub struct Framework {
    cluster: Cluster,
    proxies: ProxySet,
    pool: CcrPool,
    partitioner: PartitionerKind,
    policy: Policy,
    threads: usize,
}

impl Framework {
    /// Deploy on `cluster`: generates the proxy set at `proxy_scale`
    /// (1 = the paper's 3.2 M-vertex proxies) and runs the one-time
    /// offline profiling for every workload in the full app registry.
    ///
    /// # Panics
    /// Panics if `proxy_scale == 0`.
    pub fn deploy(cluster: Cluster, proxy_scale: u32) -> Self {
        let proxies = ProxySet::standard(proxy_scale);
        let pool = CcrPool::profile(&cluster, &proxies, &full_apps(), 1, &OFF);
        Framework {
            cluster,
            proxies,
            pool,
            partitioner: PartitionerKind::Hybrid,
            policy: Policy::CcrGuided,
            threads: 1,
        }
    }

    /// Select the partitioning algorithm (default: Hybrid, the paper's
    /// best performer).
    pub fn with_partitioner(mut self, kind: PartitionerKind) -> Self {
        self.partitioner = kind;
        self
    }

    /// Select the balancing policy (default: CCR-guided).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the host thread budget every submitted job executes under
    /// (default 1 = serial). This changes only how long the *host* takes;
    /// the kernel's simulated reports are bitwise identical at any budget.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread budget must be positive");
        self.threads = threads;
        self
    }

    /// The host thread budget jobs run under.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The profiled CCR pool.
    pub fn pool(&self) -> &CcrPool {
        &self.pool
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Weights the current policy would use for `app`.
    ///
    /// # Panics
    /// Panics under [`Policy::CcrGuided`] if `app` is not in the pool:
    /// deployment profiles only [`hetgraph_apps::full_apps`].
    pub fn weights_for(&self, app: &AnyApp) -> MachineWeights {
        self.policy.weights(&self.cluster, &self.pool, app.name())
    }

    /// Fig 7b end to end: pick the CCR set for the application, partition
    /// the graph, finalize, execute; returns the report plus partition
    /// quality. Every stage — partition, metrics, the O(edges) view build
    /// and the run — gets the thread budget; by the determinism contract
    /// the result is identical at any budget.
    pub fn submit(&self, graph: &Graph, app: &AnyApp) -> JobResult {
        let weights = self.weights_for(app);
        let assignment = self
            .partitioner
            .build()
            .partition(graph, &weights, self.threads, &OFF);
        let partition = PartitionMetrics::compute(&assignment, &weights, self.threads);
        let dist = DistributedGraph::new(graph, &assignment, self.threads)
            .expect("assignment must cover the graph");
        let engine = SimEngine::new(&self.cluster);
        let report = app.run(&engine, &dist, self.threads);
        JobResult { report, partition }
    }

    /// Periodic maintenance (the paper: "running the profiler and updating
    /// the CCR pool online at regular intervals"). Returns whether the
    /// pool was refreshed.
    pub fn maintain(&mut self) -> bool {
        let maintainer = CcrMaintainer::default();
        maintainer
            .maintain(&mut self.pool, &self.cluster, &self.proxies, &full_apps())
            .refreshed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_gen::PowerLawConfig;

    fn framework() -> Framework {
        Framework::deploy(Cluster::case2(), 3200)
    }

    #[test]
    fn deploy_profiles_all_apps() {
        let f = framework();
        for app in full_apps() {
            assert!(
                f.pool().ccr(app.name()).is_some(),
                "{app} missing from pool"
            );
        }
    }

    #[test]
    fn submit_runs_end_to_end() {
        let f = framework();
        let g = PowerLawConfig::new(2_000, 2.1).generate(1);
        let result = f.submit(&g, &AnyApp::connected_components());
        assert!(result.report.makespan_s > 0.0);
        assert!(result.report.converged);
        assert!(result.partition.replication_factor >= 1.0);
    }

    #[test]
    fn policy_changes_weights() {
        let app = AnyApp::pagerank();
        // Default policy is CCR-guided: weights must be skewed toward the
        // Xeon L.
        assert!(framework().weights_for(&app).as_slice()[1] > 0.6);
        for policy in Policy::ALL {
            let f = framework().with_policy(policy);
            assert_eq!(
                f.weights_for(&app),
                policy.weights(f.cluster(), f.pool(), app.name()),
                "{policy}"
            );
        }
    }

    #[test]
    fn ccr_policy_beats_uniform_on_case2() {
        let g = PowerLawConfig::new(5_000, 2.0).generate(2);
        let ccr = framework().submit(&g, &AnyApp::pagerank());
        let uni = framework()
            .with_policy(Policy::Default)
            .submit(&g, &AnyApp::pagerank());
        assert!(
            ccr.report.makespan_s < uni.report.makespan_s,
            "ccr {} !< uniform {}",
            ccr.report.makespan_s,
            uni.report.makespan_s
        );
    }

    #[test]
    fn maintain_is_stable_and_redeploy_refreshes() {
        let mut f = framework();
        assert!(!f.maintain(), "same cluster, same proxies: no refresh");
        let old_spread = f.pool().ccr("pagerank").unwrap().spread();
        // A hardware upgrade is a fresh deployment: it re-profiles.
        let upgraded = Framework::deploy(Cluster::case3(), 3200);
        let new_spread = upgraded.pool().ccr("pagerank").unwrap().spread();
        assert!(new_spread > old_spread);
    }

    #[test]
    fn thread_budget_does_not_change_reports() {
        let g = PowerLawConfig::new(2_000, 2.1).generate(4);
        let serial = framework().submit(&g, &AnyApp::sssp(0));
        let threaded = framework().with_threads(4).submit(&g, &AnyApp::sssp(0));
        assert_eq!(threaded.report, serial.report);
        assert_eq!(framework().with_threads(4).threads(), 4);
    }

    #[test]
    #[should_panic(expected = "thread budget must be positive")]
    fn zero_thread_budget_rejected() {
        framework().with_threads(0);
    }

    #[test]
    fn partitioner_is_configurable() {
        let g = PowerLawConfig::new(2_000, 2.1).generate(3);
        for kind in PartitionerKind::ALL {
            let result = framework()
                .with_partitioner(kind)
                .submit(&g, &AnyApp::coloring());
            assert!(result.report.makespan_s > 0.0, "{kind}");
        }
    }
}
