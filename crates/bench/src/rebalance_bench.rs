//! Dynamic-rebalancing baseline (`BENCH_rebalance.json`).
//!
//! The tentpole scenario for mutable placement: a CCR-weighted static
//! partition is optimal only while machines keep their profiled speed.
//! This experiment runs PageRank on the frozen power-law fixture twice
//! per scenario — once with the placement pinned (the paper's static CCR
//! flow) and once with the greedy straggler-driven rebalancer allowed to
//! migrate edges between supersteps — and records both simulated
//! makespans:
//!
//! - **steady** — no perturbation. The CCR weights already balance the
//!   cluster, so the rebalancer should stand down (or at worst pay a
//!   negligible, amortized cost).
//! - **slowdown** — the most-loaded machine drops to a fraction of its
//!   nominal clock mid-run ([`SLOWDOWN_SCALE`] from superstep
//!   [`SLOWDOWN_FROM_STEP`], no recovery). Static placement eats the
//!   straggler every remaining step; migration pays a one-time transfer
//!   to shed load off it.
//!
//! Every number is simulated time, so rows are bit-reproducible for a
//! given `--scale` — no wall-clock normalization is needed. `--check`
//! gates CI on the committed baseline: the slowdown scenario must keep
//! beating static placement ([`gated_rows`] for the exact rules).

use std::time::Instant;

use hetgraph_apps::{AnyApp, PageRank};
use hetgraph_cluster::{Cluster, PerturbationSchedule};
use hetgraph_core::obs::OFF;
use hetgraph_engine::{DistributedGraph, GreedyRebalance, RunTarget, SimEngine};
use hetgraph_gen::{PowerLawConfig, ProxySet};
use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};
use hetgraph_profile::CcrPool;
use serde::Value;

use crate::context::ExperimentContext;
use crate::gate::{self, Bound, Row};
use crate::output;

/// Clock multiplier of the perturbed machine in the slowdown scenario.
pub const SLOWDOWN_SCALE: f64 = 0.4;

/// Superstep at which the slowdown begins (it never recovers).
pub const SLOWDOWN_FROM_STEP: usize = 2;

/// One scenario's static-vs-rebalanced comparison (simulated seconds).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScenarioRow {
    /// Scenario key: `steady` or `slowdown`.
    pub scenario: String,
    /// Makespan with the placement pinned for the whole run.
    pub static_makespan_s: f64,
    /// Makespan with the greedy rebalancer active.
    pub rebalanced_makespan_s: f64,
    /// `static_makespan_s / rebalanced_makespan_s` (>1 = migration won).
    pub improvement: f64,
    /// Migration batches the policy committed.
    pub migrations: usize,
    /// Total edges migrated across all batches.
    pub edges_moved: usize,
    /// Total simulated seconds charged for the migrations.
    pub migration_cost_s: f64,
}

/// The `BENCH_rebalance.json` payload.
#[derive(Debug, serde::Serialize)]
pub struct RebalanceBench {
    /// Graph downscale factor the fixture was generated at.
    pub scale: u32,
    /// Vertices in the fixture.
    pub vertices: u32,
    /// Edges in the fixture.
    pub edges: usize,
    /// Simulated machines (Cluster::case2).
    pub machines: usize,
    /// Application under test.
    pub app: String,
    /// Machine index the slowdown scenario perturbs (the most-loaded one).
    pub slowdown_machine: usize,
    /// Clock multiplier of the perturbed machine.
    pub slowdown_scale: f64,
    /// Superstep the slowdown starts at.
    pub slowdown_from_step: usize,
    /// Scenario comparisons, `steady` first.
    pub rows: Vec<ScenarioRow>,
    /// Total experiment wall-clock, seconds.
    pub total_wall_s: f64,
}

/// Run one static-vs-rebalanced comparison under `schedule`.
fn scenario(
    name: &str,
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    program: &PageRank,
    threads: usize,
) -> ScenarioRow {
    let static_report = engine.run(dist, program, threads).report;
    // Rebalancing mutates placement, so it runs on its own copy-on-write
    // clone of the shared view (the original stays pinned).
    let mut rebal_dist = dist.clone();
    let mut policy = GreedyRebalance::new();
    let rebal_report = engine
        .run(
            RunTarget::rebalanced(&mut rebal_dist, &mut policy),
            program,
            threads,
        )
        .report;
    ScenarioRow {
        scenario: name.to_string(),
        static_makespan_s: static_report.makespan_s,
        rebalanced_makespan_s: rebal_report.makespan_s,
        improvement: static_report.makespan_s / rebal_report.makespan_s,
        migrations: policy.events().len(),
        edges_moved: policy.events().iter().map(|e| e.edges_moved).sum(),
        migration_cost_s: policy.events().iter().map(|e| e.cost_s).sum(),
    }
}

/// Run the rebalance baseline, print its table, and (with `--out`) write
/// `BENCH_rebalance.json`.
pub fn rebalance(ctx: &ExperimentContext) -> RebalanceBench {
    let t0 = Instant::now();
    let scale = ctx.scale;
    // Same fixture family and scale convention as the other baselines.
    let n = (1_000_000 / scale).max(4_000);

    println!("== rebalance baseline (scale {scale}) ==");
    let graph = PowerLawConfig::new(n, 2.1).generate(42);
    let edges = graph.num_edges();
    let cluster = Cluster::case2();
    let app = AnyApp::pagerank();
    // Static CCR flow, as in `hetgraph simulate --policy ccr`: proxy-
    // profile the cluster at a fixed small proxy scale (independent of
    // the fixture scale, so the weights are identical across scales),
    // then weight the partitioner by the measured CCRs.
    let proxy_scale = 640u32.max(scale);
    let pool = CcrPool::profile(
        &cluster,
        &ProxySet::standard(proxy_scale),
        std::slice::from_ref(&app),
        ctx.threads,
        &OFF,
    );
    let weights = MachineWeights::from_ccr(pool.ccr(app.name()).expect("just profiled").ratios());
    let assignment = RandomHash::new().partition(&graph, &weights, 1, &OFF);
    let dist = DistributedGraph::new(&graph, &assignment, ctx.threads)
        .expect("assignment must cover the graph");
    // Slow the machine the static placement leans on hardest: that is
    // where a mid-run throttle hurts a pinned placement the most.
    let slowdown_machine = assignment
        .edges_per_machine()
        .iter()
        .enumerate()
        .max_by_key(|&(_, &e)| e)
        .map(|(i, _)| i)
        .expect("cluster has machines");
    println!(
        "fixture: power-law n={n} alpha=2.1 seed=42 ({edges} edges), case2, \
         ccr random_hash; slowdown: machine {slowdown_machine} at \
         {SLOWDOWN_SCALE}x clock from step {SLOWDOWN_FROM_STEP}"
    );

    let program = PageRank::new(10);
    let steady_engine = SimEngine::new(&cluster);
    let schedule = PerturbationSchedule::new().slowdown(
        slowdown_machine,
        SLOWDOWN_FROM_STEP,
        None,
        SLOWDOWN_SCALE,
    );
    let slow_engine = SimEngine::new(&cluster).with_perturbations(&schedule);

    let rows = vec![
        scenario("steady", &steady_engine, &dist, &program, ctx.threads),
        scenario("slowdown", &slow_engine, &dist, &program, ctx.threads),
    ];

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                output::f3(r.static_makespan_s),
                output::f3(r.rebalanced_makespan_s),
                format!("{:.3}x", r.improvement),
                r.migrations.to_string(),
                r.edges_moved.to_string(),
                output::f3(r.migration_cost_s),
            ]
        })
        .collect();
    output::print_table(
        &[
            "scenario",
            "static_s",
            "rebalanced_s",
            "improvement",
            "batches",
            "edges_moved",
            "migration_s",
        ],
        &cells,
    );

    let bench = RebalanceBench {
        scale,
        vertices: n,
        edges,
        machines: cluster.len(),
        app: app.name().to_string(),
        slowdown_machine,
        slowdown_scale: SLOWDOWN_SCALE,
        slowdown_from_step: SLOWDOWN_FROM_STEP,
        rows,
        total_wall_s: t0.elapsed().as_secs_f64(),
    };
    output::write_json_with_manifest(
        ctx.out_dir.as_deref(),
        "BENCH_rebalance",
        &bench,
        &output::RunManifest::collect(42, ctx.threads, scale, bench.total_wall_s),
    );
    bench
}

/// Fraction of the baseline's slowdown-scenario improvement a fresh run
/// must retain. Simulated ratios are exact at the baseline's scale; the
/// headroom only covers `--check --scale N` smoke runs at other scales.
pub const CHECK_TOLERANCE: f64 = 0.95;

/// How much the steady scenario may regress before the gate fails:
/// rebalancing must never cost more than 2% when nothing goes wrong.
pub const STEADY_FLOOR: f64 = 0.98;

/// The gated rows of a `BENCH_rebalance.json` document. All are
/// simulated-time ratios, so the gate is host-speed independent by
/// construction.
pub fn gated_rows(doc: &Value) -> Result<Vec<Row>, String> {
    let slowdown = gate::find(doc, "rows", "scenario", "slowdown")?;
    let steady = gate::find(doc, "rows", "scenario", "steady")?;
    let improvement = gate::get(slowdown, "improvement", Value::as_f64)?;
    let migrations = gate::get(slowdown, "migrations", Value::as_f64)?;
    let steady_improvement = gate::get(steady, "improvement", Value::as_f64)?;
    Ok(vec![
        // Migration beats static placement outright, and did migrate.
        Row::num("slowdown beats static", improvement, Bound::MoreThan(1.0)),
        Row::num("slowdown migrations", migrations, Bound::AtLeast(1.0)),
        Row::num(
            "slowdown improvement",
            improvement,
            Bound::AtLeastTimes(CHECK_TOLERANCE),
        ),
        // The rebalancer did not hurt a healthy run.
        Row::num(
            "steady improvement",
            steady_improvement,
            Bound::AtLeast(STEADY_FLOOR),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_both_scenarios_and_slowdown_wins() {
        // Scale 32 is the smallest fixture where per-step compute is large
        // enough relative to the barrier for a migration to amortize.
        let ctx = ExperimentContext::at_scale(32);
        let bench = rebalance(&ctx);
        let names: Vec<&str> = bench.rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, ["steady", "slowdown"]);
        let slowdown = &bench.rows[1];
        assert!(slowdown.migrations > 0, "no migration under slowdown");
        assert!(
            slowdown.improvement > 1.0,
            "migration did not beat static: {slowdown:?}"
        );
        let steady = &bench.rows[0];
        assert!(
            steady.improvement >= STEADY_FLOOR,
            "rebalancing hurt a healthy run: {steady:?}"
        );
    }

    #[test]
    fn bench_is_deterministic_across_thread_budgets() {
        let r1 = rebalance(&ExperimentContext::at_scale(32).with_threads(1));
        let r4 = rebalance(&ExperimentContext::at_scale(32).with_threads(4));
        for (a, b) in r1.rows.iter().zip(&r4.rows) {
            assert_eq!(a.static_makespan_s, b.static_makespan_s, "{}", a.scenario);
            assert_eq!(
                a.rebalanced_makespan_s, b.rebalanced_makespan_s,
                "{}",
                a.scenario
            );
            assert_eq!(a.edges_moved, b.edges_moved, "{}", a.scenario);
        }
    }

    /// A fabricated measurement with a healthy slowdown win.
    fn fake_bench() -> RebalanceBench {
        RebalanceBench {
            scale: 1,
            vertices: 1_000_000,
            edges: 5_000_000,
            machines: 2,
            app: "pagerank".to_string(),
            slowdown_machine: 0,
            slowdown_scale: SLOWDOWN_SCALE,
            slowdown_from_step: SLOWDOWN_FROM_STEP,
            rows: vec![
                ScenarioRow {
                    scenario: "steady".to_string(),
                    static_makespan_s: 10.0,
                    rebalanced_makespan_s: 10.0,
                    improvement: 1.0,
                    migrations: 0,
                    edges_moved: 0,
                    migration_cost_s: 0.0,
                },
                ScenarioRow {
                    scenario: "slowdown".to_string(),
                    static_makespan_s: 20.0,
                    rebalanced_makespan_s: 16.0,
                    improvement: 1.25,
                    migrations: 2,
                    edges_moved: 100_000,
                    migration_cost_s: 0.05,
                },
            ],
            total_wall_s: 1.0,
        }
    }

    #[test]
    fn check_accepts_a_run_against_its_own_baseline() {
        let failed = gate::failed_rows(gated_rows, &fake_bench(), &fake_bench());
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn check_flags_every_regression_class() {
        let mut regressed = fake_bench();
        regressed.rows[0].improvement = 0.90; // rebalancer hurt steady run
        regressed.rows[1].improvement = 0.99; // slowdown loss
        regressed.rows[1].migrations = 0; // and it never migrated
        let failed = gate::failed_rows(gated_rows, &regressed, &fake_bench());
        assert_eq!(failed.len(), 4, "{failed:?}");
        assert!(failed.iter().any(|f| f == "slowdown beats static"));
        assert!(failed.iter().any(|f| f == "slowdown migrations"));
        assert!(failed.iter().any(|f| f == "steady improvement"));
        // A small within-tolerance dip on slowdown passes.
        let mut dipped = fake_bench();
        dipped.rows[1].improvement = 1.20;
        assert!(gate::failed_rows(gated_rows, &dipped, &fake_bench()).is_empty());
    }
}
