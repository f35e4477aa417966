//! The Computation Capability Ratio (Eq. 1) and the offline CCR pool.
//!
//! For application `i` and machine `j`,
//! `CCR(i, j) = max_j t(i, j) / t(i, j)`: the slowest machine gets 1.0 and
//! every other machine its speedup over it. The pool maps application name
//! → CCR set and is built once per cluster composition ("CCR profiling is
//! a one-time offline process"); it only needs refreshing when new machine
//! *types* join.

use std::collections::BTreeMap;

use hetgraph_apps::AnyApp;
use hetgraph_cluster::{Cluster, MachineSpec};
use hetgraph_core::obs::{Telemetry, TimeDomain, TraceEvent, OFF};
use hetgraph_core::Graph;
use hetgraph_engine::DistributedGraph;
use hetgraph_gen::ProxySet;
use hetgraph_partition::PartitionAssignment;

use crate::runner::{isolated, machine_times, sum_per_machine};

/// A per-machine capability ratio vector for one application (slowest
/// machine = 1.0).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CcrSet {
    app: String,
    ratios: Vec<f64>,
}

impl CcrSet {
    /// Build from per-machine execution times (Eq. 1).
    ///
    /// # Panics
    /// Panics on empty or non-positive times.
    pub fn from_times(app: impl Into<String>, times: &[f64]) -> Self {
        assert!(!times.is_empty(), "CCR needs at least one machine");
        let max = times.iter().copied().fold(0.0f64, f64::max);
        assert!(max > 0.0, "CCR requires positive execution times");
        let ratios = times
            .iter()
            .map(|&t| {
                assert!(t > 0.0, "CCR requires positive execution times, got {t}");
                max / t
            })
            .collect();
        CcrSet {
            app: app.into(),
            ratios,
        }
    }

    /// Build directly from capability ratios (used by estimators).
    ///
    /// # Panics
    /// Panics on empty or non-positive ratios.
    pub fn from_ratios(app: impl Into<String>, ratios: Vec<f64>) -> Self {
        assert!(!ratios.is_empty(), "CCR needs at least one machine");
        for &r in &ratios {
            assert!(r > 0.0, "ratios must be positive, got {r}");
        }
        CcrSet {
            app: app.into(),
            ratios,
        }
    }

    /// Application name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Per-machine ratios (same order as the cluster's machines).
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Number of machines covered.
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// Whether empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// Ratio of the fastest machine to the slowest — the "1 : x"
    /// heterogeneity the paper quotes (e.g. Case 2 ≈ 1 : 3.5).
    pub fn spread(&self) -> f64 {
        let max = self
            .ratios
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self.ratios.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    }
}

/// The offline pool: application name → profiled CCR set.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CcrPool {
    sets: BTreeMap<String, CcrSet>,
}

impl CcrPool {
    /// An empty pool.
    pub fn new() -> Self {
        CcrPool::default()
    }

    /// Profile `cluster` with the proxy set for every listed application
    /// (Section III-B):
    ///
    /// 1. generate every proxy graph once;
    /// 2. group machines by type and profile one representative per group,
    ///    each application on each proxy, on the machine in isolation —
    ///    each (application, proxy) runs once and its recorded work is
    ///    priced per representative (see [`crate::runner`]), which is
    ///    bit-identical to running it on each;
    /// 3. expand group times to all members and form CCRs (Eq. 1).
    ///
    /// Proxy graph generation, the one-machine view builds and the
    /// (application × proxy) traced runs fan out over `threads`
    /// [`hetgraph_core::par::scheduled`] workers. Every run is a pure
    /// function of its cell, and results are merged in deterministic cell
    /// order — each group's times summed over proxies in proxy order — so
    /// the pool is identical for any thread count.
    ///
    /// With `telemetry` on, to the event log: wall-clock spans for
    /// proxy-graph generation and for every traced run (application ×
    /// proxy), recorded from the workers (wall-domain only — their arrival
    /// order depends on scheduling), plus one profiling-set-time gauge per
    /// (application × machine group). To the metrics registry:
    /// deterministic counters in the sim domain — proxies, and CCR
    /// estimates as (application × machine group) cells; they depend only
    /// on the cluster composition and app list, so they belong in the
    /// byte-stable snapshot — plus wall-clock histograms for proxy
    /// generation and per traced run. Pass [`OFF`] for none; the returned
    /// pool is identical with any combination of the two halves.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn profile(
        cluster: &Cluster,
        proxies: &ProxySet,
        apps: &[AnyApp],
        threads: usize,
        telemetry: &Telemetry,
    ) -> Self {
        let specs = proxies.proxies();
        let t_gen0 = telemetry.now_us();
        let wall_gen0 = telemetry.metering().then(std::time::Instant::now);
        let graphs: Vec<Graph> =
            hetgraph_core::par::scheduled(specs.len(), threads, |i| specs[i].generate());
        if telemetry.tracing() {
            let t = telemetry.now_us();
            telemetry.record(TraceEvent::wall_span(
                "proxy_generation",
                "profile",
                0,
                t_gen0,
                t - t_gen0,
            ));
        }
        let groups = cluster.groups();
        let group_list: Vec<_> = groups.iter().collect();
        let reps: Vec<MachineSpec> = group_list
            .iter()
            .map(|(_, ids)| cluster.machine(ids[0]).clone())
            .collect();
        let n_groups = reps.len();
        let n_proxies = graphs.len();
        let cell_wall = telemetry.histogram("profile/cell_wall_s", TimeDomain::Wall);
        if let Some(t0) = wall_gen0 {
            telemetry
                .counter("profile/proxy_graphs_total", TimeDomain::Sim)
                .add(specs.len() as u64);
            telemetry
                .counter("profile/measurement_cells_total", TimeDomain::Sim)
                .add((apps.len() * n_groups) as u64);
            telemetry
                .histogram("profile/proxy_generation_wall_s", TimeDomain::Wall)
                .observe(t0.elapsed().as_secs_f64());
        }
        // One isolated view per proxy, shared by every application.
        let assignments: Vec<PartitionAssignment> =
            hetgraph_core::par::scheduled(n_proxies, threads, |i| isolated(&graphs[i]));
        let views: Vec<DistributedGraph<'_>> =
            hetgraph_core::par::scheduled(n_proxies, threads, |i| {
                DistributedGraph::new(&graphs[i], &assignments[i], 1)
                    .expect("assignment must cover the graph")
            });
        // One traced run per (application, proxy), priced on every group
        // representative.
        let cell_times: Vec<Vec<f64>> =
            hetgraph_core::par::scheduled(apps.len() * n_proxies, threads, |k| {
                let (ai, pi) = (k / n_proxies, k % n_proxies);
                let wall_t0 = cell_wall.is_live().then(std::time::Instant::now);
                let t0 = telemetry.now_us();
                let times = machine_times(&reps, &apps[ai], &views[pi]);
                if telemetry.tracing() {
                    let t1 = telemetry.now_us();
                    telemetry.record(TraceEvent::wall_span(
                        format!("ccr/{}/{}", apps[ai].name(), specs[pi].name),
                        "profile",
                        pi as u32,
                        t0,
                        t1 - t0,
                    ));
                }
                if let Some(t0) = wall_t0 {
                    cell_wall.observe(t0.elapsed().as_secs_f64());
                }
                times
            });
        let mut pool = CcrPool::new();
        for (ai, app) in apps.iter().enumerate() {
            // Each group's profiling-set time, summed over proxies in
            // proxy order.
            let set_times =
                sum_per_machine(n_groups, &cell_times[ai * n_proxies..(ai + 1) * n_proxies]);
            let mut group_time: BTreeMap<&str, f64> = BTreeMap::new();
            for (gi, (name, _)) in group_list.iter().enumerate() {
                group_time.insert(name.as_str(), set_times[gi]);
                if telemetry.tracing() {
                    telemetry.record(TraceEvent::wall_gauge(
                        format!("proxy_set_time_s/{}", app.name()),
                        gi as u32,
                        telemetry.now_us(),
                        set_times[gi],
                    ));
                }
            }
            // Expand to the full machine list in cluster order.
            let times: Vec<f64> = cluster
                .machines()
                .iter()
                .map(|m| group_time[m.name.as_str()])
                .collect();
            pool.insert(CcrSet::from_times(app.name(), &times));
        }
        pool
    }

    /// For `benchmark/src/layers.rs` only; deleted by the ruler's next API
    /// follow-up.
    #[doc(hidden)]
    pub fn profile_with_threads(
        cluster: &Cluster,
        proxies: &ProxySet,
        apps: &[AnyApp],
        threads: usize,
    ) -> Self {
        Self::profile(cluster, proxies, apps, threads, &OFF)
    }

    /// Insert or replace a CCR set (keyed by its application name).
    pub fn insert(&mut self, set: CcrSet) {
        self.sets.insert(set.app.clone(), set);
    }

    /// Look up the CCR set for an application.
    pub fn ccr(&self, app: &str) -> Option<&CcrSet> {
        self.sets.get(app)
    }

    /// Number of applications covered.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Iterate over all sets.
    pub fn iter(&self) -> impl Iterator<Item = &CcrSet> {
        self.sets.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_apps::standard_apps;

    #[test]
    fn ccr_from_times_eq1() {
        // Machine times 10s, 5s, 2s -> CCR 1.0, 2.0, 5.0.
        let c = CcrSet::from_times("x", &[10.0, 5.0, 2.0]);
        assert_eq!(c.ratios(), &[1.0, 2.0, 5.0]);
        assert!((c.spread() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn slowest_machine_is_always_one() {
        let c = CcrSet::from_times("x", &[3.0, 7.0, 5.0]);
        let min = c.ratios().iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(min, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive execution times")]
    fn zero_time_rejected() {
        CcrSet::from_times("x", &[1.0, 0.0]);
    }

    #[test]
    fn pool_profile_covers_all_apps_and_machines() {
        let cluster = Cluster::case2();
        let pool = CcrPool::profile(
            &cluster,
            &ProxySet::standard(6400),
            &standard_apps(),
            1,
            &OFF,
        );
        assert_eq!(pool.len(), 4);
        for app in standard_apps() {
            let set = pool.ccr(app.name()).expect("app profiled");
            assert_eq!(set.len(), 2);
            // Case 2: the Xeon L must be meaningfully faster.
            assert!(
                set.spread() > 1.5,
                "{}: spread {}",
                app.name(),
                set.spread()
            );
        }
    }

    #[test]
    fn group_members_share_ccr() {
        use hetgraph_cluster::catalog;
        let cluster = Cluster::new(vec![
            catalog::xeon_s(),
            catalog::xeon_l(),
            catalog::xeon_s(), // second member of the xeon_s group
        ]);
        let pool = CcrPool::profile(
            &cluster,
            &ProxySet::standard(6400),
            &[AnyApp::pagerank()],
            1,
            &OFF,
        );
        let r = pool.ccr("pagerank").unwrap().ratios();
        assert_eq!(r[0], r[2], "same-type machines share the profiled CCR");
        assert!(r[1] > r[0]);
    }

    #[test]
    fn profile_matches_serial_exactly_at_any_thread_count() {
        let cluster = Cluster::case3();
        let proxies = ProxySet::standard(6400);
        let serial = CcrPool::profile(&cluster, &proxies, &standard_apps(), 1, &OFF);
        for threads in [2, 4] {
            let par = CcrPool::profile(&cluster, &proxies, &standard_apps(), threads, &OFF);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn profile_with_telemetry_matches_and_emits_it() {
        let cluster = Cluster::case2();
        let proxies = ProxySet::standard(6400);
        let apps = standard_apps();
        let plain = CcrPool::profile(&cluster, &proxies, &apps, 2, &OFF);
        let t = Telemetry::live();
        let inst = CcrPool::profile(&cluster, &proxies, &apps, 2, &t);
        assert_eq!(plain, inst, "telemetry must not perturb the pool");
        let events = t.take_events();
        assert!(events.iter().any(|e| e.name == "proxy_generation"));
        // One CCR estimate per (app × machine group); Case 2 has two
        // distinct machine types.
        let cells = (apps.len() * 2) as u64;
        // One traced run — one span, one wall observation — per (app ×
        // proxy): each run is priced for every group.
        let traces = (apps.len() * proxies.proxies().len()) as u64;
        let spans = events.iter().filter(|e| e.name.starts_with("ccr/")).count();
        assert_eq!(spans as u64, traces);
        assert!(events.iter().all(|e| e.domain == TimeDomain::Wall));
        let snap = t.snapshot();
        assert_eq!(
            snap.counter_value("profile/measurement_cells_total"),
            Some(cells)
        );
        assert_eq!(
            snap.counter_value("profile/proxy_graphs_total"),
            Some(proxies.proxies().len() as u64)
        );
        assert_eq!(
            snap.histogram("profile/cell_wall_s").unwrap().count(),
            traces
        );
        assert_eq!(
            snap.histogram("profile/proxy_generation_wall_s")
                .unwrap()
                .count(),
            1
        );
        // The deterministic counters are sim-domain; the timings are not.
        let sim = t.snapshot_sim();
        assert!(sim
            .counter_value("profile/measurement_cells_total")
            .is_some());
        assert!(sim.histograms.is_empty());
    }

    #[test]
    fn pool_lookup_misses_gracefully() {
        let pool = CcrPool::new();
        assert!(pool.ccr("nope").is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn insert_replaces_by_app_name() {
        let mut pool = CcrPool::new();
        pool.insert(CcrSet::from_ratios("a", vec![1.0, 2.0]));
        pool.insert(CcrSet::from_ratios("a", vec![1.0, 3.0]));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.ccr("a").unwrap().ratios(), &[1.0, 3.0]);
    }
}
