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
use hetgraph_cluster::Cluster;
use hetgraph_core::Graph;
use hetgraph_gen::ProxySet;

use crate::runner::profiling_set_time;

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
    ///    each application on each proxy, on the machine in isolation;
    /// 3. expand group times to all members and form CCRs (Eq. 1).
    pub fn profile(cluster: &Cluster, proxies: &ProxySet, apps: &[AnyApp]) -> Self {
        Self::profile_with_threads(cluster, proxies, apps, 1)
    }

    /// [`CcrPool::profile`] with a host thread budget: proxy graph
    /// generation and the (application × machine group) measurement cells
    /// fan out over [`hetgraph_core::par::scheduled`] workers. Every
    /// measurement is a pure function of its cell, and results are merged
    /// in deterministic cell order, so the pool is identical for any
    /// thread count.
    ///
    /// # Panics
    /// Panics if `host_threads == 0`.
    pub fn profile_with_threads(
        cluster: &Cluster,
        proxies: &ProxySet,
        apps: &[AnyApp],
        host_threads: usize,
    ) -> Self {
        Self::profile_instrumented(
            cluster,
            proxies,
            apps,
            host_threads,
            &hetgraph_core::obs::NOOP,
            &hetgraph_core::metrics::NOOP,
        )
    }

    /// [`CcrPool::profile_with_threads`] with observability. Through the
    /// recorder: wall-clock spans for proxy-graph generation and for
    /// every CCR estimation cell (application × machine group), recorded
    /// through per-worker [`hetgraph_core::obs::TraceBuffer`]s
    /// (worker-side events are wall-domain only — their arrival order
    /// depends on scheduling). Through the registry:
    /// deterministic cell/proxy counters in the sim domain (they depend
    /// only on the cluster composition and app list, so they belong in
    /// the byte-stable snapshot) plus wall-clock histograms for proxy
    /// generation and per measurement cell. Cell durations are staged in
    /// a per-cell [`hetgraph_core::metrics::HistogramShard`] and folded
    /// with one atomic pass — the metrics analogue of the per-worker
    /// `TraceBuffer` — so worker scheduling cannot interleave partial
    /// updates. The returned pool is identical with any sink
    /// combination.
    ///
    /// # Panics
    /// Panics if `host_threads == 0`.
    pub fn profile_instrumented(
        cluster: &Cluster,
        proxies: &ProxySet,
        apps: &[AnyApp],
        host_threads: usize,
        recorder: &dyn hetgraph_core::obs::Recorder,
        metrics: &hetgraph_core::metrics::MetricsRegistry,
    ) -> Self {
        use hetgraph_core::metrics::HistogramShard;
        use hetgraph_core::obs::{TimeDomain, TraceBuffer, TraceEvent};
        let specs = proxies.proxies();
        let t_gen0 = recorder.now_us();
        let wall_gen0 = metrics.enabled().then(std::time::Instant::now);
        let graphs: Vec<Graph> =
            hetgraph_core::par::scheduled(specs.len(), host_threads, |i| specs[i].generate());
        if recorder.enabled() {
            let t = recorder.now_us();
            recorder.record(TraceEvent::wall_span(
                "proxy_generation",
                "profile",
                0,
                t_gen0,
                t - t_gen0,
            ));
        }
        let groups = cluster.groups();
        let group_list: Vec<_> = groups.iter().collect();
        let n_groups = group_list.len();
        let cell_wall = metrics.histogram("profile/cell_wall_s", TimeDomain::Wall);
        if let Some(t0) = wall_gen0 {
            metrics
                .counter("profile/proxy_graphs_total", TimeDomain::Sim)
                .add(specs.len() as u64);
            metrics
                .counter("profile/measurement_cells_total", TimeDomain::Sim)
                .add((apps.len() * n_groups) as u64);
            metrics
                .histogram("profile/proxy_generation_wall_s", TimeDomain::Wall)
                .observe(t0.elapsed().as_secs_f64());
        }
        // One measurement cell per (application, machine group).
        let cell_times: Vec<f64> =
            hetgraph_core::par::scheduled(apps.len() * n_groups, host_threads, |k| {
                let (ai, gi) = (k / n_groups, k % n_groups);
                let rep = cluster.machine(group_list[gi].1[0]);
                if !recorder.enabled() && !cell_wall.is_live() {
                    return profiling_set_time(rep, &apps[ai], &graphs);
                }
                let wall_t0 = cell_wall.is_live().then(std::time::Instant::now);
                let time = if !recorder.enabled() {
                    profiling_set_time(rep, &apps[ai], &graphs)
                } else {
                    let mut buf = TraceBuffer::new(recorder);
                    let t0 = buf.now_us();
                    let time = profiling_set_time(rep, &apps[ai], &graphs);
                    let t1 = buf.now_us();
                    buf.push(TraceEvent::wall_span(
                        format!("ccr/{}/{}", apps[ai].name(), group_list[gi].0),
                        "profile",
                        gi as u32,
                        t0,
                        t1 - t0,
                    ));
                    buf.push(TraceEvent::wall_gauge(
                        format!("proxy_set_time_s/{}", apps[ai].name()),
                        gi as u32,
                        t1,
                        time,
                    ));
                    time
                };
                if let Some(t0) = wall_t0 {
                    let mut shard = HistogramShard::new();
                    shard.observe(t0.elapsed().as_secs_f64());
                    cell_wall.merge_shard(&shard);
                }
                time
            });
        let mut pool = CcrPool::new();
        for (ai, app) in apps.iter().enumerate() {
            let mut group_time: BTreeMap<&str, f64> = BTreeMap::new();
            for (gi, (name, _)) in group_list.iter().enumerate() {
                group_time.insert(name.as_str(), cell_times[ai * n_groups + gi]);
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
        let pool = CcrPool::profile(&cluster, &ProxySet::standard(6400), &standard_apps());
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
        let pool = CcrPool::profile(&cluster, &ProxySet::standard(6400), &[AnyApp::pagerank()]);
        let r = pool.ccr("pagerank").unwrap().ratios();
        assert_eq!(r[0], r[2], "same-type machines share the profiled CCR");
        assert!(r[1] > r[0]);
    }

    #[test]
    fn profile_with_threads_matches_serial_exactly() {
        let cluster = Cluster::case3();
        let proxies = ProxySet::standard(6400);
        let serial = CcrPool::profile(&cluster, &proxies, &standard_apps());
        for threads in [2, 4] {
            let par = CcrPool::profile_with_threads(&cluster, &proxies, &standard_apps(), threads);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn profile_traced_matches_and_emits_cell_spans() {
        use hetgraph_core::metrics::NOOP as METRICS_NOOP;
        use hetgraph_core::obs::{TraceRecorder, NOOP};
        let cluster = Cluster::case2();
        let proxies = ProxySet::standard(6400);
        let apps = standard_apps();
        let plain = CcrPool::profile_with_threads(&cluster, &proxies, &apps, 2);
        let noop =
            CcrPool::profile_instrumented(&cluster, &proxies, &apps, 2, &NOOP, &METRICS_NOOP);
        assert_eq!(plain, noop);
        let rec = TraceRecorder::new();
        let traced =
            CcrPool::profile_instrumented(&cluster, &proxies, &apps, 2, &rec, &METRICS_NOOP);
        assert_eq!(plain, traced, "recording must not perturb the pool");
        let events = rec.take_events();
        assert!(events.iter().any(|e| e.name == "proxy_generation"));
        // One estimation span per (app × machine group); Case 2 has two
        // distinct machine types.
        let cells = events.iter().filter(|e| e.name.starts_with("ccr/")).count();
        assert_eq!(cells, apps.len() * 2);
        assert!(events
            .iter()
            .all(|e| e.domain == hetgraph_core::obs::TimeDomain::Wall));
    }

    #[test]
    fn profile_instrumented_matches_and_aggregates() {
        use hetgraph_core::metrics::MetricsRegistry;
        use hetgraph_core::obs::NOOP;
        let cluster = Cluster::case2();
        let proxies = ProxySet::standard(6400);
        let apps = standard_apps();
        let plain = CcrPool::profile_with_threads(&cluster, &proxies, &apps, 2);
        let m = MetricsRegistry::new();
        let inst = CcrPool::profile_instrumented(&cluster, &proxies, &apps, 2, &NOOP, &m);
        assert_eq!(plain, inst, "metrics must not perturb the pool");
        let snap = m.snapshot();
        // Case 2 has two machine groups -> apps × 2 measurement cells,
        // each observed once into the wall histogram.
        let cells = (apps.len() * 2) as u64;
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
            cells
        );
        assert_eq!(
            snap.histogram("profile/proxy_generation_wall_s")
                .unwrap()
                .count(),
            1
        );
        // The deterministic counters are sim-domain; the timings are not.
        let sim = m.snapshot_sim();
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
