//! CCR estimation accuracy (Fig 8).
//!
//! For a set of machines, a set of real(-stand-in) graphs, and the proxy
//! set, this module computes — per application and machine — three
//! speedup numbers over the baseline machine:
//!
//! * **real** — profiled per real graph (ground truth; summarized as the
//!   geometric mean over the graphs);
//! * **proxy** — profiled on the synthetic proxy set (the paper's method:
//!   one estimate serves every future workload);
//! * **prior** — predicted from computing-thread counts (prior work).
//!
//! The error metric is per-workload, as a user would experience it: the
//! proxy estimate is compared against each real graph's own speedup and
//! the relative errors are averaged. The paper reports this as "accuracy"
//! (= 100 % − error): ~92 % within an EC2 category, ~96 % across
//! categories, versus ~108 % *error* for thread counts.

use hetgraph_apps::AnyApp;
use hetgraph_cluster::MachineSpec;
use hetgraph_core::stats;
use hetgraph_core::Graph;
use hetgraph_gen::ProxySet;

use crate::runner::profiling_set_times;

/// One (application, machine) accuracy sample.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AccuracyRow {
    /// Application name.
    pub app: String,
    /// Machine name.
    pub machine: String,
    /// Geometric-mean speedup over the baseline machine across the real
    /// graphs.
    pub real_speedup: f64,
    /// Per-real-graph speedups (same order as the input graph list).
    pub real_speedups_per_graph: Vec<f64>,
    /// Speedup estimated from the synthetic proxy set.
    pub proxy_speedup: f64,
    /// Speedup predicted by the thread-count baseline.
    pub prior_speedup: f64,
}

impl AccuracyRow {
    /// Mean relative error of the proxy estimate against each real graph's
    /// own speedup (the per-workload experience).
    pub fn proxy_error(&self) -> f64 {
        stats::mean(
            &self
                .real_speedups_per_graph
                .iter()
                .map(|&r| stats::relative_error(self.proxy_speedup, r))
                .collect::<Vec<_>>(),
        )
    }

    /// Mean relative error of the prior-work estimate, per real graph.
    pub fn prior_error(&self) -> f64 {
        stats::mean(
            &self
                .real_speedups_per_graph
                .iter()
                .map(|&r| stats::relative_error(self.prior_speedup, r))
                .collect::<Vec<_>>(),
        )
    }
}

/// The full Fig 8 evaluation result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AccuracyReport {
    /// Every (app, machine) sample; the baseline machine is omitted (its
    /// speedups are 1.0 by definition).
    pub rows: Vec<AccuracyRow>,
}

impl AccuracyReport {
    /// Evaluate machines against `baseline` (the paper's Fig 8a uses
    /// c4.xlarge; Fig 8b uses m4.2xlarge).
    ///
    /// # Panics
    /// Panics if `machines` or `apps` or `real_graphs` is empty.
    pub fn evaluate(
        baseline: &MachineSpec,
        machines: &[MachineSpec],
        apps: &[AnyApp],
        proxies: &ProxySet,
        real_graphs: &[Graph],
    ) -> Self {
        assert!(!machines.is_empty(), "need at least one machine to compare");
        assert!(!apps.is_empty(), "need at least one application");
        assert!(!real_graphs.is_empty(), "need at least one real graph");
        let proxy_graphs: Vec<Graph> = proxies.proxies().iter().map(|p| p.generate()).collect();

        // The baseline first, then every compared machine: each (app,
        // graph) runs once and is priced on all of them.
        let all: Vec<MachineSpec> = std::iter::once(baseline).chain(machines).cloned().collect();
        let base_threads = baseline.computing_threads() as f64;
        let mut rows = Vec::new();
        for app in apps {
            let real: Vec<Vec<f64>> = real_graphs
                .iter()
                .map(|g| profiling_set_times(&all, app, std::slice::from_ref(g)))
                .collect();
            let proxy = profiling_set_times(&all, app, &proxy_graphs);
            for (j, m) in machines.iter().enumerate() {
                if m.name == baseline.name {
                    continue;
                }
                let per_graph: Vec<f64> = real.iter().map(|t| t[0] / t[j + 1]).collect();
                rows.push(AccuracyRow {
                    app: app.name().to_string(),
                    machine: m.name.clone(),
                    real_speedup: stats::geomean(&per_graph),
                    real_speedups_per_graph: per_graph,
                    proxy_speedup: proxy[0] / proxy[j + 1],
                    prior_speedup: m.computing_threads() as f64 / base_threads,
                });
            }
        }
        AccuracyReport { rows }
    }

    /// Mean proxy relative error in percent (paper: ~8 % within category).
    pub fn proxy_error_pct(&self) -> f64 {
        100.0
            * stats::mean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.proxy_error())
                    .collect::<Vec<_>>(),
            )
    }

    /// Mean prior-work relative error in percent (paper: ~108 %).
    pub fn prior_error_pct(&self) -> f64 {
        100.0
            * stats::mean(
                &self
                    .rows
                    .iter()
                    .map(|r| r.prior_error())
                    .collect::<Vec<_>>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_apps::standard_apps;
    use hetgraph_cluster::catalog;
    use hetgraph_gen::NaturalGraph;

    fn small_report() -> AccuracyReport {
        // Scaled-down graphs keep this test fast while preserving shapes.
        let real: Vec<Graph> = [NaturalGraph::Amazon, NaturalGraph::Wiki]
            .iter()
            .map(|g| g.generate(256))
            .collect();
        AccuracyReport::evaluate(
            &catalog::c4_xlarge(),
            &[
                catalog::c4_2xlarge(),
                catalog::c4_4xlarge(),
                catalog::c4_8xlarge(),
            ],
            &standard_apps(),
            &ProxySet::standard(3200),
            &real,
        )
    }

    #[test]
    fn proxies_beat_thread_counts() {
        let report = small_report();
        assert!(
            report.proxy_error_pct() < report.prior_error_pct(),
            "proxy {}% !< prior {}%",
            report.proxy_error_pct(),
            report.prior_error_pct()
        );
    }

    #[test]
    fn proxy_error_in_papers_ballpark() {
        let report = small_report();
        // Paper: 8% error within a category; the error must be small but
        // must also EXIST — proxies are not clairvoyant.
        assert!(
            report.proxy_error_pct() < 30.0,
            "proxy error {}%",
            report.proxy_error_pct()
        );
        assert!(
            report.proxy_error_pct() > 0.1,
            "suspiciously perfect proxy estimate: {}%",
            report.proxy_error_pct()
        );
    }

    #[test]
    fn prior_overestimates_massively_for_saturating_apps() {
        let report = small_report();
        let pr_8x = report
            .rows
            .iter()
            .find(|r| r.app == "pagerank" && r.machine == "c4.8xlarge")
            .expect("row exists");
        // Thread counts predict 17x; PageRank saturates far below that.
        assert!(pr_8x.prior_speedup > 2.0 * pr_8x.real_speedup);
    }

    #[test]
    fn speedups_exceed_one_for_bigger_machines() {
        let report = small_report();
        for r in &report.rows {
            assert!(
                r.real_speedup > 1.0,
                "{}/{}: {}",
                r.app,
                r.machine,
                r.real_speedup
            );
            assert_eq!(r.real_speedups_per_graph.len(), 2);
        }
    }

    #[test]
    fn rows_skip_baseline_machine() {
        let report = small_report();
        assert!(report.rows.iter().all(|r| r.machine != "c4.xlarge"));
        assert_eq!(report.rows.len(), 4 * 3);
    }
}
