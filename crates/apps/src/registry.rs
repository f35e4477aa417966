//! The app registry: every workload as one uniform, extensible value type.
//!
//! `GasProgram` has associated types, so heterogeneous collections of
//! programs need a dispatch layer. [`AnyApp`] is that layer: an
//! object-safe, type-erased handle over a vertex program (via the
//! [`AppSpec`] trait) with a stable name key for the CCR pool. The
//! profiler, the evaluation harness, the CLI, and `Framework` all iterate
//! [`AnyApp`] collections and call [`AnyApp::run`], which executes the
//! right vertex program on the one superstep kernel and returns the
//! simulated report ([`AnyApp::trace`] also returns the run's
//! re-priceable work record).
//!
//! **Registering a new app is a one-place change**: implement
//! [`GasProgram`] for your vertex program and add a constructor on
//! [`AnyApp`] that hands `AnyApp::from_program` the name, the profile and
//! a closure building the program for a [`RunTarget`] (three lines — see
//! [`AnyApp::sssp`]), then list it in [`AppRegistry::full`]. The one
//! generic [`AppSpec`] adapter in this file does the type erasure and the
//! engine call for every program, so there is no per-app run code to
//! write or keep in sync. Every consumer — `CcrPool::profile*`, the sweep
//! matrix's `--apps` selector, `hetgraph run`/`submit`, and `Framework` —
//! picks the app up from the registry; no enum to extend, no per-crate
//! match arms.

use std::sync::Arc;

use hetgraph_cluster::AppProfile;
use hetgraph_core::VertexId;
use hetgraph_engine::{EngineError, GasProgram, RunTarget, SimEngine, SimReport, WorkTrace};

use crate::coloring::Coloring;
use crate::connected_components::ConnectedComponents;
use crate::kcore::KCore;
use crate::pagerank::{PageRank, PageRank32};
use crate::sssp::Sssp;
use crate::triangle_count::TriangleCount;

/// Default PageRank iteration count for evaluation runs (the paper runs
/// PageRank for a fixed number of sweeps).
pub const PAGERANK_ITERATIONS: usize = 10;

/// Default SSSP source vertex for evaluation runs.
pub const SSSP_DEFAULT_SOURCE: VertexId = 0;

/// Default k for k-core evaluation runs.
pub const KCORE_DEFAULT_K: u32 = 3;

/// One registered workload: what the registry needs to profile and run it.
///
/// Object-safe on purpose — `AnyApp` stores `Arc<dyn AppSpec>`, so a spec
/// must type-erase its program's associated types behind
/// [`AppSpec::run`].
pub trait AppSpec: Send + Sync {
    /// Application name. Keys the CCR pool and the `--apps`/CLI selectors,
    /// so it must be stable and unique within a registry.
    fn name(&self) -> &'static str;

    /// The application's ground-truth hardware profile.
    fn profile(&self) -> AppProfile;

    /// Execute over `target` with the given host thread budget and return
    /// the simulated report (see [`SimEngine::run`]).
    fn run(
        &self,
        engine: &SimEngine<'_>,
        target: RunTarget<'_, '_>,
        host_threads: usize,
    ) -> SimReport;

    /// [`AppSpec::run`] that also records the run's per-superstep work
    /// (see [`SimEngine::trace`]).
    ///
    /// # Errors
    /// Whatever [`SimEngine::trace`] rejects.
    fn trace(
        &self,
        engine: &SimEngine<'_>,
        target: RunTarget<'_, '_>,
        host_threads: usize,
    ) -> Result<(SimReport, WorkTrace), EngineError>;
}

/// The one [`AppSpec`] implementation: a name, a profile, and a
/// constructor from the run target to the vertex program. Most programs
/// ignore the target; ones bound to the input graph (Triangle Count
/// pre-sorts adjacency) read it.
struct ProgramSpec<F> {
    name: &'static str,
    profile: fn() -> AppProfile,
    program: F,
}

impl<P, F> AppSpec for ProgramSpec<F>
where
    P: GasProgram,
    F: Fn(&RunTarget<'_, '_>) -> P + Send + Sync,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn profile(&self) -> AppProfile {
        (self.profile)()
    }

    fn run(
        &self,
        engine: &SimEngine<'_>,
        target: RunTarget<'_, '_>,
        host_threads: usize,
    ) -> SimReport {
        let program = (self.program)(&target);
        engine.run(target, &program, host_threads).report
    }

    fn trace(
        &self,
        engine: &SimEngine<'_>,
        target: RunTarget<'_, '_>,
        host_threads: usize,
    ) -> Result<(SimReport, WorkTrace), EngineError> {
        let program = (self.program)(&target);
        engine
            .trace(target, &program, host_threads)
            .map(|(out, trace)| (out.report, trace))
    }
}

/// A cheaply-cloneable, type-erased handle to a registered workload.
///
/// Equality, hashing, ordering, and `Display` all go through
/// [`AnyApp::name`], matching how the CCR pool and the scheduling policies
/// key applications.
#[derive(Clone)]
pub struct AnyApp(Arc<dyn AppSpec>);

impl AnyApp {
    /// Wrap a spec.
    pub fn new(spec: impl AppSpec + 'static) -> Self {
        AnyApp(Arc::new(spec))
    }

    /// Register a vertex program: `program` builds it for the view a run
    /// is about to execute over.
    fn from_program<P: GasProgram>(
        name: &'static str,
        profile: fn() -> AppProfile,
        program: impl Fn(&RunTarget<'_, '_>) -> P + Send + Sync + 'static,
    ) -> Self {
        AnyApp::new(ProgramSpec {
            name,
            profile,
            program,
        })
    }

    /// PageRank (Eq. 8) at the standard [`PAGERANK_ITERATIONS`].
    pub fn pagerank() -> Self {
        AnyApp::from_program("pagerank", PageRank::standard_profile, |_| {
            PageRank::new(PAGERANK_ITERATIONS)
        })
    }

    /// Reduced-precision PageRank ([`PageRank32`]) at the standard
    /// [`PAGERANK_ITERATIONS`]. Opt-in only: deliberately not part of
    /// [`AppRegistry::standard`] or [`AppRegistry::full`] — its f32 ranks
    /// are not comparable with the pinned f64 snapshots, so it must be
    /// registered explicitly (the CLI does, as `pagerank_f32`).
    pub fn pagerank_f32() -> Self {
        AnyApp::from_program("pagerank_f32", PageRank32::standard_profile, |_| {
            PageRank32::new(PAGERANK_ITERATIONS)
        })
    }

    /// Greedy coloring.
    pub fn coloring() -> Self {
        AnyApp::from_program("coloring", Coloring::standard_profile, |_| Coloring::new())
    }

    /// Weakly-connected components.
    pub fn connected_components() -> Self {
        AnyApp::from_program(
            "connected_components",
            ConnectedComponents::standard_profile,
            |_| ConnectedComponents::new(),
        )
    }

    /// Triangle counting. The program is bound to the input's sorted
    /// adjacency, so it is built from whichever view the run targets.
    pub fn triangle_count() -> Self {
        AnyApp::from_program(
            "triangle_count",
            TriangleCount::standard_profile,
            |target| match target {
                RunTarget::Plain(dist) => TriangleCount::for_graph(dist.graph()),
                RunTarget::Rebalanced(dist, _) => TriangleCount::for_graph(dist.graph()),
                RunTarget::Compact(dist) => TriangleCount::for_compact(dist),
            },
        )
    }

    /// Single-source shortest paths from `source`.
    pub fn sssp(source: VertexId) -> Self {
        AnyApp::from_program("sssp", Sssp::standard_profile, move |_| Sssp::new(source))
    }

    /// k-core decomposition at threshold `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn kcore(k: u32) -> Self {
        assert!(k > 0, "k-core requires k >= 1");
        AnyApp::from_program("kcore", KCore::standard_profile, move |_| KCore::new(k))
    }

    /// Application name (keys the CCR pool).
    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    /// The application's ground-truth hardware profile.
    pub fn profile(&self) -> AppProfile {
        self.0.profile()
    }

    /// Execute over `target` — `&DistributedGraph`, `&CompactDistGraph`
    /// or [`RunTarget::rebalanced`] — and return the simulated report.
    /// Exactly [`SimEngine::run`] for the registered program: the report
    /// is bitwise identical at any `host_threads` and on either
    /// representation, and a rebalanced run leaves the final placement
    /// inspectable in the caller's view (the `PartitionAssignment` it was
    /// built from is never touched).
    ///
    /// # Panics
    /// Panics if `host_threads == 0`.
    pub fn run<'k, 'g: 'k>(
        &self,
        engine: &SimEngine<'_>,
        target: impl Into<RunTarget<'k, 'g>>,
        host_threads: usize,
    ) -> SimReport {
        self.0.run(engine, target.into(), host_threads)
    }

    /// [`AnyApp::run`] that also returns the run's [`WorkTrace`], which
    /// [`SimEngine::price`] re-prices for any cluster of the same size —
    /// exactly [`SimEngine::trace`] for the registered program.
    ///
    /// # Errors
    /// [`EngineError::RebalancedTrace`] for a rebalanced target,
    /// [`EngineError::ZeroThreads`], or
    /// [`EngineError::MachineCountMismatch`] between view and cluster.
    pub fn trace<'k, 'g: 'k>(
        &self,
        engine: &SimEngine<'_>,
        target: impl Into<RunTarget<'k, 'g>>,
        host_threads: usize,
    ) -> Result<(SimReport, WorkTrace), EngineError> {
        self.0.trace(engine, target.into(), host_threads)
    }
}

impl PartialEq for AnyApp {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}
impl Eq for AnyApp {}

impl std::hash::Hash for AnyApp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

impl std::fmt::Debug for AnyApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyApp").field(&self.name()).finish()
    }
}

impl std::fmt::Display for AnyApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered, name-keyed collection of workloads.
pub struct AppRegistry {
    apps: Vec<AnyApp>,
}

impl AppRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        AppRegistry { apps: Vec::new() }
    }

    /// The paper's four MLDM applications (Section IV), in the paper's
    /// order — the default app set for figure reproduction.
    pub fn standard() -> Self {
        let mut r = AppRegistry::new();
        r.register(AnyApp::pagerank());
        r.register(AnyApp::coloring());
        r.register(AnyApp::connected_components());
        r.register(AnyApp::triangle_count());
        r
    }

    /// All six workloads: the paper's four plus the SSSP (source
    /// [`SSSP_DEFAULT_SOURCE`]) and k-core ([`KCORE_DEFAULT_K`])
    /// extensions.
    pub fn full() -> Self {
        let mut r = AppRegistry::standard();
        r.register(AnyApp::sssp(SSSP_DEFAULT_SOURCE));
        r.register(AnyApp::kcore(KCORE_DEFAULT_K));
        r
    }

    /// Add a workload; a same-named entry is replaced in place (so
    /// `register(AnyApp::sssp(42))` re-parameterizes the default).
    pub fn register(&mut self, app: AnyApp) {
        match self.apps.iter_mut().find(|a| a.name() == app.name()) {
            Some(slot) => *slot = app,
            None => self.apps.push(app),
        }
    }

    /// Look up a workload by its stable name.
    pub fn get(&self, name: &str) -> Option<&AnyApp> {
        self.apps.iter().find(|a| a.name() == name)
    }

    /// The registered workloads, in registration order.
    pub fn apps(&self) -> &[AnyApp] {
        &self.apps
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.apps.iter().map(|a| a.name()).collect()
    }
}

impl Default for AppRegistry {
    fn default() -> Self {
        AppRegistry::standard()
    }
}

/// The paper's application set ([`AppRegistry::standard`], as a `Vec`).
pub fn standard_apps() -> Vec<AnyApp> {
    AppRegistry::standard().apps.clone()
}

/// All six workloads ([`AppRegistry::full`], as a `Vec`).
pub fn full_apps() -> Vec<AnyApp> {
    AppRegistry::full().apps.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::Cluster;
    use hetgraph_core::obs::OFF;
    use hetgraph_engine::{CompactDistGraph, DistributedGraph, GreedyRebalance};
    use hetgraph_gen::PowerLawConfig;
    use hetgraph_partition::{MachineWeights, PartitionAssignment, Partitioner, RandomHash};

    #[test]
    fn names_and_profiles_consistent() {
        for app in full_apps() {
            assert_eq!(app.name(), app.profile().name);
            app.profile().assert_valid();
        }
    }

    #[test]
    fn registry_sets_have_expected_names() {
        assert_eq!(
            AppRegistry::standard().names(),
            [
                "pagerank",
                "coloring",
                "connected_components",
                "triangle_count"
            ]
        );
        assert_eq!(
            AppRegistry::full().names(),
            [
                "pagerank",
                "coloring",
                "connected_components",
                "triangle_count",
                "sssp",
                "kcore"
            ]
        );
    }

    #[test]
    fn pagerank_f32_is_opt_in_only() {
        // The reduced-precision program must never leak into the default
        // registries (its reports would silently diverge from the f64
        // snapshots), but explicit registration works like any other app.
        assert!(AppRegistry::standard().get("pagerank_f32").is_none());
        assert!(AppRegistry::full().get("pagerank_f32").is_none());
        let mut r = AppRegistry::full();
        r.register(AnyApp::pagerank_f32());
        let app = r.get("pagerank_f32").expect("registered");
        assert_eq!(app.name(), app.profile().name);
        app.profile().assert_valid();
        let g = PowerLawConfig::new(800, 2.1).generate(3);
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment covers graph");
        let rep = app.run(&SimEngine::new(&cluster), &dist, 1);
        assert_eq!(rep.app, "pagerank_f32");
        assert!(rep.makespan_s > 0.0);
    }

    #[test]
    fn register_replaces_same_name_in_place() {
        let mut r = AppRegistry::full();
        let before = r.names();
        r.register(AnyApp::sssp(7));
        assert_eq!(r.names(), before, "re-registration keeps order");
        assert!(r.get("sssp").is_some());
        assert!(r.get("no_such_app").is_none());
    }

    #[test]
    fn all_six_run_on_a_power_law_graph() {
        let g = PowerLawConfig::new(800, 2.1).generate(3);
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment covers graph");
        let engine = SimEngine::new(&cluster);
        for app in full_apps() {
            let rep = app.run(&engine, &dist, 1);
            assert!(rep.makespan_s > 0.0, "{app}: no time simulated");
            assert!(rep.supersteps > 0, "{app}: no supersteps");
            assert_eq!(rep.app, app.name());
        }
    }

    #[test]
    fn profiles_are_microarchitecturally_diverse() {
        // The Fig 2 premise: the four apps must not share one profile.
        let ratios: Vec<f64> = standard_apps()
            .iter()
            .map(|a| {
                let p = a.profile();
                p.edge_flops / p.edge_bytes
            })
            .collect();
        // PageRank is the most memory-bound; TriangleCount the least.
        assert!(ratios[0] < ratios[1]);
        assert!(ratios[0] < ratios[2]);
        assert!(ratios[3] > ratios[1]);
    }

    #[test]
    fn display_and_equality_key_on_name() {
        assert_eq!(AnyApp::pagerank().to_string(), "pagerank");
        assert_eq!(AnyApp::sssp(0), AnyApp::sssp(99), "equality is by name");
        assert_ne!(AnyApp::sssp(0), AnyApp::kcore(3));
        assert_eq!(format!("{:?}", AnyApp::kcore(3)), "AnyApp(\"kcore\")");
    }

    /// The capability table: every app × thread count × run target, from
    /// one loop, so a new app or target inherits every cell.
    #[test]
    fn every_app_runs_identically_on_every_target_at_every_thread_count() {
        let g = PowerLawConfig::new(800, 2.1).generate(3);
        let cluster = Cluster::case2();
        let engine = SimEngine::new(&cluster);
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment covers graph");
        let compact =
            CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || g.edges().iter().copied())
                .expect("assignment covers graph");
        // A maximally skewed start so the greedy policy has something to
        // look at (whether it migrates here depends on amortization).
        let skewed = PartitionAssignment::from_edge_machines(&g, 2, vec![0; g.num_edges()], 1);
        let mut apps = full_apps();
        apps.push(AnyApp::pagerank_f32());
        for app in apps {
            let reference = app.run(&engine, &dist, 1);
            assert_eq!(reference.app, app.name());
            assert!(reference.makespan_s > 0.0, "{app}: no time simulated");
            let mut greedy_reference = None;
            for threads in [1, 2, 4] {
                let plain = app.run(&engine, &dist, threads);
                assert_eq!(plain, reference, "{app}/plain/{threads}");
                let compacted = app.run(&engine, &compact, threads);
                assert_eq!(compacted, reference, "{app}/compact/{threads}");

                // A policy that never fires: the rebalanced path must be
                // the static run, and must not copy the assignment.
                let mut inert = GreedyRebalance::new().with_min_imbalance(f64::INFINITY);
                let mut view = dist.clone();
                let target = RunTarget::rebalanced(&mut view, &mut inert);
                assert_eq!(
                    app.run(&engine, target, threads),
                    reference,
                    "{app}/inert/{threads}"
                );
                assert!(inert.events().is_empty(), "{app}/inert/{threads}");
                assert_eq!(view.assignment(), &a, "{app}/inert/{threads}");

                let mut greedy = GreedyRebalance::new();
                let mut view =
                    DistributedGraph::new(&g, &skewed, 1).expect("assignment covers graph");
                let report = app.run(
                    &engine,
                    RunTarget::rebalanced(&mut view, &mut greedy),
                    threads,
                );
                assert_eq!(report.app, app.name());
                assert!(report.makespan_s > 0.0, "{app}: no time simulated");
                // The caller's assignment is never touched.
                assert!(skewed.edge_machines().iter().all(|&m| m == 0));
                let cell = (report, greedy.events().len());
                let first = greedy_reference.get_or_insert_with(|| cell.clone());
                assert_eq!(
                    &cell, first,
                    "{app}/greedy/{threads}: rebalanced run must be thread-invariant"
                );
            }
        }
    }
}
